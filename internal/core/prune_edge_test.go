package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core/exec"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/vecstore"
)

// scriptedSearcher overrides the batch-search path with canned hits while
// delegating everything else to a real (empty) index, so QueryAndPrune can
// be driven through retrieval outcomes the real encoder cannot produce on
// demand (exact zero scores, empty result sets).
type scriptedSearcher struct {
	*vecstore.Sharded
	hits []vecstore.Hit
}

func (s scriptedSearcher) BatchSearchWith(_ func(string) embed.Vector, queries []string, _ int) [][]vecstore.Hit {
	out := make([][]vecstore.Hit, len(queries))
	for i := range out {
		out[i] = s.hits
	}
	return out
}

func scriptedPipeline(t *testing.T, st *kg.Store, hits []vecstore.Hit, cfg Config) *Pipeline {
	t.Helper()
	idx := scriptedSearcher{Sharded: vecstore.BuildTriples(embed.NewEncoder(), nil), hits: hits}
	p, err := New(st, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestQueryAndPruneEmptyCandidates: retrieval finding nothing yields an
// empty Gg and records an empty Gt, not a panic or phantom subjects.
func TestQueryAndPruneEmptyCandidates(t *testing.T) {
	st, _ := testStore(t)
	p := scriptedPipeline(t, st, nil, DefaultConfig())
	gp := kg.NewGraph(kg.NewTriple("China", "population", "1"))
	var tr Trace
	gg := p.QueryAndPrune(gp, &tr)
	if gg.Len() != 0 {
		t.Errorf("Gg = %s, want empty", gg)
	}
	if len(tr.Gt) != 0 || len(tr.Candidates) != 0 || len(tr.Kept) != 0 {
		t.Errorf("trace populated from empty retrieval: %+v", tr)
	}
}

// TestQueryAndPruneAllBelowThreshold: with a threshold above every
// subject's relative confidence, two-step pruning keeps nothing and Gg is
// empty (the pipeline then verifies against nothing and degrades).
func TestQueryAndPruneAllBelowThreshold(t *testing.T) {
	st, idx := testStore(t)
	cfg := DefaultConfig()
	cfg.ConfidenceThreshold = 1.01 // even the best subject calibrates to 1.0
	p, err := New(st, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr Trace
	gg := p.QueryAndPrune(kg.NewGraph(kg.NewTriple("China", "population", "1")), &tr)
	if gg.Len() != 0 || len(tr.Kept) != 0 {
		t.Errorf("threshold 1.01 kept %v, Gg:\n%s", tr.Kept, gg)
	}
	if len(tr.Candidates) == 0 {
		t.Error("candidate selection should still have run")
	}
}

// TestQueryAndPruneZeroScoreRegression: when every retrieved cosine is 0
// (zero-vector queries, disjoint vocabularies) the relative confidence
// scale is a 0/0 division. Confidences must come out as exactly 0 — never
// NaN, which would make the threshold comparison silently false and leak
// unsupported subjects into Gg. Under two-step pruning zero-support
// subjects are dropped (Gg empty, graceful degradation); under count-only
// pruning they survive with a finite 0 confidence.
func TestQueryAndPruneZeroScoreRegression(t *testing.T) {
	st, _ := testStore(t)
	zeroHits := []vecstore.Hit{
		{Triple: kg.NewTriple("China", "population", "1443497378"), Score: 0},
		{Triple: kg.NewTriple("Beijing", "country", "China"), Score: 0},
	}
	gp := kg.NewGraph(kg.NewTriple("China", "population", "1"), kg.NewTriple("Beijing", "country", "China"))

	// Two-step: zero support is below any positive threshold; everything
	// is dropped and nothing is NaN.
	p := scriptedPipeline(t, st, zeroHits, DefaultConfig())
	var tr Trace
	gg := p.QueryAndPrune(gp, &tr)
	if len(tr.Kept) != 0 || gg.Len() != 0 {
		t.Errorf("two-step kept zero-support subjects: %v\n%s", tr.Kept, gg)
	}
	for _, sc := range tr.Candidates {
		if math.IsNaN(sc.Confidence) || math.IsInf(sc.Confidence, 0) {
			t.Errorf("candidate %s has non-finite confidence %v", sc.Subject, sc.Confidence)
		}
	}

	// Count-only: the threshold does not apply, and the surviving
	// confidences must be a finite 0 rather than NaN.
	cfg := DefaultConfig()
	cfg.Prune = PruneCountOnly
	pc := scriptedPipeline(t, st, zeroHits, cfg)
	var trc Trace
	ggc := pc.QueryAndPrune(gp, &trc)
	if len(trc.Kept) == 0 || ggc.Len() == 0 {
		t.Fatal("count-only dropped subjects the strategy should keep")
	}
	for _, sc := range trc.Kept {
		if math.IsNaN(sc.Confidence) || sc.Confidence != 0 {
			t.Errorf("subject %s confidence = %v, want finite 0", sc.Subject, sc.Confidence)
		}
	}
}

// TestQueryAndPruneNoneCapInteraction: PruneNone ignores the threshold but
// still honours the MaxSubjects safety cap, keeping the top subjects by
// count.
func TestQueryAndPruneNoneCapInteraction(t *testing.T) {
	st := kg.NewStore(kg.SourceWikidata)
	var hits []vecstore.Hit
	for i := 0; i < 6; i++ {
		subj := fmt.Sprintf("S%d", i)
		st.Add(kg.Triple{Subject: subj, Relation: "r", Object: "o"})
		// Subject S_i appears in i+1 hits, so S5 has the highest count.
		for j := 0; j <= i; j++ {
			hits = append(hits, vecstore.Hit{Triple: kg.NewTriple(subj, "r", "o"), Score: 0.5})
		}
	}
	st.Freeze()
	cfg := DefaultConfig()
	cfg.Prune = PruneNone
	cfg.MaxSubjects = 2
	cfg.ConfidenceThreshold = 1.01 // must be ignored under PruneNone
	p := scriptedPipeline(t, st, hits, cfg)
	var tr Trace
	gg := p.QueryAndPrune(kg.NewGraph(kg.NewTriple("S0", "r", "o")), &tr)
	if len(tr.Kept) != 2 {
		t.Fatalf("PruneNone with MaxSubjects=2 kept %d subjects: %v", len(tr.Kept), tr.Kept)
	}
	for _, sc := range tr.Kept {
		if sc.Subject != "S5" && sc.Subject != "S4" {
			t.Errorf("cap kept %s instead of the top-count subjects", sc.Subject)
		}
	}
	if gg.Len() != 2 {
		t.Errorf("Gg has %d triples, want the 2 capped subject blocks:\n%s", gg.Len(), gg)
	}
}

func TestCalibrateNaNGuard(t *testing.T) {
	nan := math.NaN()
	for _, c := range []float64{calibrate(nan, 1), calibrate(1, nan), calibrate(nan, nan), calibrate(0.5, 0)} {
		if c != 0 {
			t.Errorf("degenerate calibrate input produced %v, want 0", c)
		}
	}
}

func TestTraceClone(t *testing.T) {
	tr := &Trace{
		Question:   "q",
		Gp:         kg.NewGraph(kg.NewTriple("a", "r", "b")),
		Gg:         kg.NewGraph(kg.NewTriple("c", "r", "d")),
		Gf:         kg.NewGraph(kg.NewTriple("e", "r", "f")),
		Gt:         []vecstore.Hit{{Triple: kg.NewTriple("a", "r", "b"), Score: 0.5}},
		Candidates: []SubjectConfidence{{Subject: "cand", Confidence: 0.3}},
		Kept:       []SubjectConfidence{{Subject: "a", Confidence: 1}},
		Stages:     []exec.Span{{Stage: StagePseudo, LLMCalls: 1}},
	}
	cl := tr.Clone()
	cl.Gp.Triples[0].Subject = "CORRUPTED"
	cl.Gt[0].Score = -1
	cl.Candidates[0].Subject = "CORRUPTED"
	cl.Kept[0].Subject = "CORRUPTED"
	cl.Gg.Add(kg.NewTriple("x", "y", "z"))
	cl.Gf.Add(kg.NewTriple("x", "y", "z"))
	cl.Stages[0].LLMCalls = 99
	if tr.Gp.Triples[0].Subject != "a" || tr.Gt[0].Score != 0.5 || tr.Kept[0].Subject != "a" || tr.Gg.Len() != 1 {
		t.Errorf("clone shares state with original: %+v", tr)
	}
	if tr.Candidates[0].Subject != "cand" || tr.Gf.Len() != 1 || tr.Stages[0].LLMCalls != 1 {
		t.Errorf("clone shares state with original: %+v", tr)
	}
	var nilTr *Trace
	if nilTr.Clone() != nil {
		t.Error("nil trace must clone to nil")
	}
}
