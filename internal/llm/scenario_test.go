package llm

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/metrics"
	"repro/internal/prompts"
	"repro/internal/qa"
	"repro/internal/world"
)

// TestCountFromGraphCountsDistinctObjects: the aggregation path counts the
// distinct objects of the triples that realise the counted relation from
// the question's subject, so decoy subjects, decoy relations and duplicate
// triples in the retrieved graph must not inflate the count.
func TestCountFromGraphCountsDistinctObjects(t *testing.T) {
	s := newSim(t, GPT4Params())
	graph := "<Xrange> <covers country> <Alandia>\n" +
		"<Xrange> <covers country> <Borland>\n" +
		"<Xrange> <covers country> <Borland>\n" + // duplicate: counted once
		"<Completely Different> <covers country> <Cestan>\n" + // decoy subject
		"<Xrange> <length> <500>" // decoy relation
	prompt := prompts.AnswerFromGraph("How many countries does Xrange cover?", graph)
	resp, err := s.Complete(context.Background(), Request{Prompt: prompt})
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.ExtractMarked(resp.Text); got != "2" {
		t.Errorf("count = %q, want 2:\n%s", got, resp.Text)
	}
}

// TestCountFromGraphFallsBackWhenSilent: a graph with nothing about the
// counted relation must not yield a confident zero — the model falls back
// to parametric estimation and still marks some number.
func TestCountFromGraphFallsBackWhenSilent(t *testing.T) {
	s := newSim(t, GPT4Params())
	graph := "<Xrange> <length> <500>"
	prompt := prompts.AnswerFromGraph("How many countries does Xrange cover?", graph)
	resp, err := s.Complete(context.Background(), Request{Prompt: prompt})
	if err != nil {
		t.Fatal(err)
	}
	got := metrics.ExtractMarked(resp.Text)
	if got == "" {
		t.Fatalf("no marked answer: %q", resp.Text)
	}
	if _, err := strconv.Atoi(got); err != nil {
		t.Errorf("fallback count answer is not numeric: %q", got)
	}
}

// TestTemporalFromGraphIndexesHistory: temporal lookups over a graph must
// index into the chronological revision list instead of collapsing to the
// latest value.
func TestTemporalFromGraphIndexesHistory(t *testing.T) {
	s := newSim(t, GPT4Params())
	graph := "<Xcity> <population> <100>\n<Xcity> <population> <200>\n<Xcity> <population> <300>"
	cases := []struct {
		question, want string
	}{
		{"What was the previous population of Xcity?", "200"},
		{"What was the original population of Xcity?", "100"},
		{"What is the population of Xcity?", "300"},
	}
	for _, c := range cases {
		resp, err := s.Complete(context.Background(), Request{Prompt: prompts.AnswerFromGraph(c.question, graph)})
		if err != nil {
			t.Fatal(err)
		}
		if got := metrics.ExtractMarked(resp.Text); got != c.want {
			t.Errorf("%q = %q, want %q", c.question, got, c.want)
		}
	}
}

// TestTemporalParametricRecallsHistory: with full revision knowledge (know
// gates forced open), the parametric route must answer previous/original
// from the memorised history.
func TestTemporalParametricRecallsHistory(t *testing.T) {
	params := GPT4Params()
	params.KnowBase = 1 // know everything
	params.CorruptRate = 0
	params.IOPenalty = 0
	s := newSim(t, params)
	city := s.w.Entities[s.w.OfKind(world.KindCity)[0]]
	facts := s.w.FactsSR(city.ID, world.RelPopulation)
	if len(facts) < 2 {
		t.Fatalf("city %s has %d population revisions, want >=2", city.Name, len(facts))
	}
	prev := facts[len(facts)-2].Literal
	orig := facts[0].Literal
	cases := []struct {
		question, want string
	}{
		{"What was the previous population of " + city.Name + "?", prev},
		{"What was the original population of " + city.Name + "?", orig},
	}
	for _, c := range cases {
		resp, err := s.Complete(context.Background(), Request{Prompt: prompts.IO(c.question)})
		if err != nil {
			t.Fatal(err)
		}
		if got := metrics.ExtractMarked(resp.Text); got != c.want {
			t.Errorf("%q = %q, want %q", c.question, got, c.want)
		}
	}
}

// TestPremiseGateDeclinesFalsePremises: asking a well-formed question about
// an entity of the wrong kind must usually produce {unanswerable} at the
// GPT-4 grade's calibration (PremiseCheckRate 0.85).
func TestPremiseGateDeclinesFalsePremises(t *testing.T) {
	s := newSim(t, GPT4Params())
	people := s.w.OfKind(world.KindPerson)
	declined := 0
	total := 0
	for i := 0; i < 20 && i < len(people); i++ {
		name := s.w.Entities[people[i]].Name
		q := fmt.Sprintf("What is the population of %s?", name)
		resp, err := s.Complete(context.Background(), Request{Prompt: prompts.IO(q)})
		if err != nil {
			t.Fatal(err)
		}
		total++
		if metrics.ExtractMarked(resp.Text) == qa.Unanswerable {
			declined++
		}
	}
	if declined < total/2 {
		t.Errorf("declined %d/%d false-premise questions, want at least half", declined, total)
	}
	if declined == total {
		t.Errorf("declined all %d — the failure mode (confident hallucination) should survive sometimes", total)
	}
}

// TestCountParametricUndercountsAtLowGrade: a weaker grade's count answers
// derive from its believed facts, so across many subjects its counts must
// not all match gold — imperfect memory shows up as miscounts.
func TestCountParametricUndercountsAtLowGrade(t *testing.T) {
	s := newSim(t, GPT35Params())
	res := &qa.Resolver{W: s.w}
	mismatched := false
	for _, id := range s.w.OfKind(world.KindMountain) {
		name := s.w.Entities[id].Name
		in := qa.Intent{Kind: qa.KindCount, Subject: name, Chain: []world.RelKey{world.RelCovers}}
		golds, err := res.Gold(in)
		if err != nil {
			continue
		}
		q := fmt.Sprintf("How many countries does %s cover?", name)
		resp, err := s.Complete(context.Background(), Request{Prompt: prompts.IO(q)})
		if err != nil {
			t.Fatal(err)
		}
		if metrics.ExtractMarked(resp.Text) != golds[0] {
			mismatched = true
			break
		}
	}
	if !mismatched {
		t.Error("GPT-3.5-grade counts matched gold everywhere; memory gating should cause miscounts")
	}
}
