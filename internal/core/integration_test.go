package core

import (
	"context"
	"testing"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/vecstore"
	"repro/internal/world"
)

// simPipeline wires the pipeline to the real simulated model over a small
// world — the integration layer between the unit tests (fake client) and
// the bench harness.
func simPipeline(t *testing.T, params llm.GradeParams) (*Pipeline, *world.World) {
	t.Helper()
	cfg := world.DefaultConfig()
	cfg.People = 100
	cfg.Cities = 40
	cfg.Countries = 16
	cfg.Works = 60
	cfg.Companies = 24
	cfg.Universities = 12
	cfg.Lakes = 20
	cfg.Mountains = 12
	cfg.Rivers = 20
	w := world.MustGenerate(cfg)
	store := world.WikidataSchema().Render(w)
	idx := vecstore.Build(embed.NewEncoder(), store)
	model := llm.NewSim(w, params, 42)
	p, err := New(model, store, idx, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p, w
}

// TestPipelineCorrectsHallucinations is the core end-to-end property: over
// head-entity population questions (time-varying, so parametric answers
// are often stale or corrupted), the full pipeline must answer correctly
// far more often than it fails.
func TestPipelineCorrectsHallucinations(t *testing.T) {
	p, w := simPipeline(t, llm.GPT4Params())
	right, total := 0, 0
	for _, cityID := range w.OfKind(world.KindCity)[:25] {
		city := w.Entities[cityID]
		cur, ok := w.CurrentFact(cityID, world.RelPopulation)
		if !ok {
			continue
		}
		total++
		res, err := p.Answer(context.Background(), "What is the population of "+city.Name+"?")
		if err != nil {
			t.Fatal(err)
		}
		if metrics.Hit1(res.Answer, []string{cur.Literal}) > 0 {
			right++
		}
	}
	if right*3 < total*2 {
		t.Errorf("pipeline corrected only %d/%d population questions", right, total)
	}
}

// TestPipelineTraceConsistency: the trace's artefacts must be internally
// consistent on real runs.
func TestPipelineTraceConsistency(t *testing.T) {
	p, w := simPipeline(t, llm.GPT35Params())
	for _, personID := range w.OfKind(world.KindPerson)[:10] {
		name := w.Entities[personID].Name
		res, err := p.Answer(context.Background(), "Where was "+name+" born?")
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		if tr.Question == "" || tr.PseudoRaw == "" || tr.AnswerRaw == "" {
			t.Fatalf("trace incomplete: %+v", tr)
		}
		if calls := stageCalls(tr); calls < 2 {
			t.Errorf("expected at least 2 LLM calls, got %d", calls)
		}
		// Every kept subject must have its block in Gg.
		for _, sc := range tr.Kept {
			if len(tr.Gg.BySubject()[sc.Subject]) == 0 {
				t.Errorf("kept subject %q missing from Gg", sc.Subject)
			}
		}
		if res.Answer != tr.AnswerRaw {
			t.Error("answer and trace diverge")
		}
	}
}

// TestPipelineSchemaAgnostic: the same pipeline construction works over
// the Freebase schema with lower-cased entities.
func TestPipelineSchemaAgnostic(t *testing.T) {
	cfg := world.DefaultConfig()
	cfg.People = 80
	cfg.Cities = 30
	cfg.Countries = 15
	cfg.Works = 50
	cfg.Companies = 20
	cfg.Universities = 10
	cfg.Lakes = 15
	cfg.Mountains = 8
	cfg.Rivers = 15
	w := world.MustGenerate(cfg)
	store := world.FreebaseSchema().Render(w)
	idx := vecstore.Build(embed.NewEncoder(), store)
	model := llm.NewSim(w, llm.GPT4Params(), 42)
	p, err := New(model, store, idx, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	right, total := 0, 0
	for _, cityID := range w.OfKind(world.KindCity)[:15] {
		city := w.Entities[cityID]
		cur, ok := w.CurrentFact(cityID, world.RelPopulation)
		if !ok {
			continue
		}
		total++
		res, err := p.Answer(context.Background(), "What is the population of "+city.Name+"?")
		if err != nil {
			t.Fatal(err)
		}
		if metrics.Hit1(res.Answer, []string{cur.Literal}) > 0 {
			right++
		}
	}
	if right*2 < total {
		t.Errorf("freebase-schema pipeline: %d/%d", right, total)
	}
	if store.Source() != kg.SourceFreebase {
		t.Error("store source should be freebase")
	}
}
