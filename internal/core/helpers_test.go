package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/core/exec"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
)

// defaultView is the embedded prompt set the tests render from.
var defaultView = prompts.Default().View()

// ask runs the full composition for one question through a fresh
// counting client over client, rendering from defaultView.
func ask(p *Pipeline, client llm.Client, question string) (Result, error) {
	return p.Answer(context.Background(), llm.NewCounting(client, 0), defaultView, question)
}

// graphOf builds a pseudo-graph from (s, r, o) triput rows.
func graphOf(rows ...[3]string) *kg.Graph {
	g := &kg.Graph{}
	for _, row := range rows {
		g.Add(kg.NewTriple(row[0], row[1], row[2]))
	}
	return g
}

func TestChainRelationsEmptyGraph(t *testing.T) {
	if rels := chainRelations(&kg.Graph{}); len(rels) != 0 {
		t.Errorf("empty graph chain relations = %v, want none", rels)
	}
}

func TestChainRelationsFlatStar(t *testing.T) {
	// A star graph: every object is a leaf, no chaining planned.
	g := graphOf(
		[3]string{"Ada", "born in", "London"},
		[3]string{"Ada", "field", "mathematics"},
	)
	if rels := chainRelations(g); len(rels) != 0 {
		t.Errorf("star graph chain relations = %v, want none", rels)
	}
}

func TestChainRelationsDetectsPlannedHops(t *testing.T) {
	// "born in" bridges into London's own facts; case differs to exercise
	// the fold.
	g := graphOf(
		[3]string{"Ada", "born in", "london"},
		[3]string{"London", "country", "England"},
	)
	rels := chainRelations(g)
	if len(rels) != 1 || rels[0] != "born in" {
		t.Errorf("chain relations = %v, want [born in]", rels)
	}
}

func TestChainRelationsDeduplicates(t *testing.T) {
	// The same relation chains through two bridges but must appear once.
	g := graphOf(
		[3]string{"Ada", "born in", "London"},
		[3]string{"Bob", "born in", "Paris"},
		[3]string{"London", "country", "England"},
		[3]string{"Paris", "country", "France"},
	)
	if rels := chainRelations(g); len(rels) != 1 {
		t.Errorf("chain relations = %v, want exactly one entry", rels)
	}
}

func TestRelationInSetEmptySet(t *testing.T) {
	if relationInSet("born in", nil) {
		t.Error("empty set must match nothing")
	}
}

func TestRelationInSetOverlap(t *testing.T) {
	cases := []struct {
		relation string
		set      []string
		want     bool
	}{
		// Identical surface.
		{"born in", []string{"born in"}, true},
		// Token-overlap >= 0.5 of the smaller set ("place of birth" vs
		// "birth place": full overlap of the smaller side).
		{"birth place", []string{"place of birth"}, true},
		// Disjoint vocabularies.
		{"spouse", []string{"employer"}, false},
		// Punctuation and case are normalised by the tokenizer.
		{"Born-In", []string{"born in"}, true},
		// Partial overlap below the 0.5 coefficient.
		{"country of citizenship and residence", []string{"residence"}, true},
	}
	for _, c := range cases {
		if got := relationInSet(c.relation, c.set); got != c.want {
			t.Errorf("relationInSet(%q, %v) = %v, want %v", c.relation, c.set, got, c.want)
		}
	}
}

func TestTokenSet(t *testing.T) {
	got := tokenSet("Born-In: the CITY, again city")
	for _, want := range []string{"born", "in", "city"} {
		if !got[want] {
			t.Errorf("tokenSet missing %q (got %v)", want, got)
		}
	}
	// 5 distinct words with "city" appearing twice: duplicates fold.
	if len(got) != 5 {
		t.Errorf("tokenSet size = %d, want 5 (%v)", len(got), got)
	}
	if len(tokenSet("")) != 0 {
		t.Error("empty surface must tokenize to the empty set")
	}
}

// TestTraceCloneCopiesStageSpans covers the span slice added to Trace:
// a clone must not alias the original's spans, or a serving cache handing
// out clones would let one caller corrupt another's trace.
func TestTraceCloneCopiesStageSpans(t *testing.T) {
	orig := &Trace{
		Question: "q",
		Stages: []exec.Span{
			{Stage: StagePseudo, Latency: time.Millisecond, LLMCalls: 1},
			{Stage: StageAnswer, Latency: 2 * time.Millisecond, LLMCalls: 1},
		},
	}
	clone := orig.Clone()
	if len(clone.Stages) != 2 {
		t.Fatalf("clone has %d spans, want 2", len(clone.Stages))
	}
	clone.Stages[0].Stage = "mutated"
	clone.Stages[1].LLMCalls = 99
	if orig.Stages[0].Stage != StagePseudo || orig.Stages[1].LLMCalls != 1 {
		t.Error("mutating the clone's spans corrupted the original")
	}
	orig.Stages[0].Latency = time.Hour
	if clone.Stages[0].Latency == time.Hour {
		t.Error("mutating the original's spans corrupted the clone")
	}
	var nilTrace *Trace
	if nilTrace.Clone() != nil {
		t.Error("nil trace must clone to nil")
	}
}
