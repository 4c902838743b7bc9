package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/kg"
)

// tinyEnv builds the smallest workable environment for harness tests.
func tinyEnv(t testing.TB) *Env {
	t.Helper()
	cfg := QuickEnvConfig()
	cfg.Data.SimpleN = 20
	cfg.Data.QALDN = 12
	cfg.Data.NatureN = 8
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnv(t *testing.T) {
	env := tinyEnv(t)
	if env.World == nil || env.Suite == nil {
		t.Fatal("env incomplete")
	}
	if len(env.Substrates) != 2 || len(env.Models) != 2 {
		t.Fatalf("env components: %d substrates %d models", len(env.Substrates), len(env.Models))
	}
}

func TestRunAllMethods(t *testing.T) {
	env := tinyEnv(t)
	ds := env.Suite.Simple
	src := datasets.DefaultSource(ds.Name)
	for _, method := range []string{MethodIO, MethodCoT, MethodSC, MethodRAG, MethodToG, MethodOurs, MethodOursGp} {
		cell, err := env.Run(context.Background(), method, ModelGPT35, ds, src)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if cell.N != len(ds.Questions) {
			t.Errorf("%s: N = %d", method, cell.N)
		}
		if cell.Score < 0 || cell.Score > 100 {
			t.Errorf("%s: score = %v", method, cell.Score)
		}
	}
	if _, err := env.Run(context.Background(), "bogus", ModelGPT35, ds, src); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	env := tinyEnv(t)
	ds := env.Suite.QALD
	a, err := env.Run(context.Background(), MethodOurs, ModelGPT4, ds, datasets.DefaultSource(ds.Name))
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Run(context.Background(), MethodOurs, ModelGPT4, ds, datasets.DefaultSource(ds.Name))
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score {
		t.Errorf("Run not deterministic: %v vs %v", a.Score, b.Score)
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"CoT", "ToG", "KGR", "Ours", "Multi-source"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output lacks %q", want)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	env := tinyEnv(t)
	var buf bytes.Buffer
	res, err := Fig2(context.Background(), env, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != len(env.Suite.Simple.Questions)+len(env.Suite.QALD.Questions) {
		t.Errorf("Fig2 N = %d", res.N)
	}
	if res.CypherValid < 90 {
		t.Errorf("Cypher validity %.1f, want >= 90", res.CypherValid)
	}
	if res.DirectValid >= res.CypherValid {
		t.Errorf("direct validity %.1f should be below Cypher %.1f",
			res.DirectValid, res.CypherValid)
	}
}

// TestHeadlineOrderings is the integration test of the reproduction: on a
// small environment, the paper's core claims must hold as orderings.
func TestHeadlineOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("integration ordering test")
	}
	env, err := NewEnv(QuickEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	score := func(method, model string, ds string) float64 {
		var d = env.Suite.Simple
		switch ds {
		case "qald":
			d = env.Suite.QALD
		case "nature":
			d = env.Suite.Nature
		}
		cell, err := env.Run(context.Background(), method, model, d, datasets.DefaultSource(d.Name))
		if err != nil {
			t.Fatal(err)
		}
		return cell.Score
	}
	for _, model := range []string{ModelGPT35, ModelGPT4} {
		// Claim 1: Ours beats the self-enhancement baselines everywhere.
		for _, ds := range []string{"simple", "qald", "nature"} {
			ours := score(MethodOurs, model, ds)
			for _, base := range []string{MethodIO, MethodCoT, MethodSC} {
				if b := score(base, model, ds); ours <= b {
					t.Errorf("%s/%s: Ours (%.1f) should beat %s (%.1f)", model, ds, ours, base, b)
				}
			}
		}
		// Claim 2: RAG collapses below IO on multi-hop QALD.
		if rag, io := score(MethodRAG, model, "qald"), score(MethodIO, model, "qald"); rag >= io {
			t.Errorf("%s: RAG on QALD (%.1f) should fall below IO (%.1f)", model, rag, io)
		}
		// Claim 3: the abstract's open-ended headline — Ours beats the CoT
		// baseline by a wide ROUGE margin (paper: at least +11.5).
		if ours, cot := score(MethodOurs, model, "nature"), score(MethodCoT, model, "nature"); ours < cot+8 {
			t.Errorf("%s: Ours on Nature (%.1f) should beat CoT (%.1f) by >= 8 points", model, ours, cot)
		}
	}
	// Claim 3b: Ours beats RAG on open-ended questions for GPT-3.5 (for
	// GPT-4 the two tie within noise in this substrate — RAG's open-ended
	// strength is the small-KG retrieval artifact documented in
	// EXPERIMENTS.md).
	if ours, rag := score(MethodOurs, ModelGPT35, "nature"), score(MethodRAG, ModelGPT35, "nature"); ours <= rag {
		t.Errorf("GPT-3.5: Ours on Nature (%.1f) should beat RAG (%.1f)", ours, rag)
	}
	// Claim 4: GPT-3.5 + Ours beats GPT-4 CoT on open-ended questions.
	if ours35, cot4 := score(MethodOurs, ModelGPT35, "nature"), score(MethodCoT, ModelGPT4, "nature"); ours35 <= cot4 {
		t.Errorf("GPT-3.5+Ours on Nature (%.1f) should beat GPT-4 CoT (%.1f)", ours35, cot4)
	}
	// Claim 5: ToG (QID-anchored) tops Ours on tail-heavy SimpleQuestions.
	if tog, ours := score(MethodToG, ModelGPT35, "simple"), score(MethodOurs, ModelGPT35, "simple"); tog <= ours {
		t.Errorf("ToG on SimpleQuestions (%.1f) should top Ours (%.1f)", tog, ours)
	}
}

// TestMultiSourceGains: PG&AKV must improve over CoT with BOTH KG sources
// on both SimpleQuestions and NatureQuestions (Table III's claim).
func TestMultiSourceGains(t *testing.T) {
	if testing.Short() {
		t.Skip("integration ordering test")
	}
	env, err := NewEnv(QuickEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"simple", "nature"} {
		d := env.Suite.Simple
		if ds == "nature" {
			d = env.Suite.Nature
		}
		cot, err := env.Run(context.Background(), MethodCoT, ModelGPT35, d, datasets.DefaultSource(d.Name))
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []kg.Source{kg.SourceFreebase, kg.SourceWikidata} {
			ours, err := env.Run(context.Background(), MethodOurs, ModelGPT35, d, src)
			if err != nil {
				t.Fatal(err)
			}
			if ours.Score <= cot.Score {
				t.Errorf("%s with %s KG: Ours (%.1f) should beat CoT (%.1f)",
					d.Name, src, ours.Score, cot.Score)
			}
		}
	}
}
