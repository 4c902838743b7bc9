package answer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/vecstore"
	"repro/internal/world"
)

// testDeps builds a small world with every substrate wired, backed by the
// simulated GPT-3.5-grade model.
func testDeps(t testing.TB) (Deps, *world.World) {
	t.Helper()
	cfg := world.DefaultConfig()
	cfg.People = 100
	cfg.Cities = 40
	cfg.Works = 60
	cfg.Companies = 25
	cfg.Universities = 15
	w, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := world.WikidataSchema().Render(w)
	enc := embed.NewEncoder()
	return Deps{
		Client:  llm.NewSim(w, llm.GPT35Params(), 42),
		Store:   st,
		Index:   vecstore.Build(enc, st),
		Encoder: enc,
	}, w
}

func TestRegistryNamesAndDescribe(t *testing.T) {
	names := Names()
	for _, want := range []string{"ours", "ours-gp", "tog", "io", "cot", "sc", "rag"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
		desc, ok := Describe(want)
		if !ok || desc == "" {
			t.Errorf("no description for %q", want)
		}
	}
	if desc, _ := Describe("SC"); !strings.Contains(desc, "0.7") {
		t.Errorf("SC description should mention temperature, got %q", desc)
	}
	if _, ok := Describe("nope"); ok {
		t.Error("unexpected description for unknown name")
	}
	// Aliases resolve but do not appear as canonical names.
	if _, ok := Describe("pgakv"); !ok {
		t.Error("alias pgakv should resolve")
	}
	for _, n := range names {
		if n == "pgakv" {
			t.Error("alias leaked into Names()")
		}
	}
}

func TestNewUnknownMethod(t *testing.T) {
	deps, _ := testDeps(t)
	_, err := New("no-such-method", deps)
	var unknown *UnknownMethodError
	if !errors.As(err, &unknown) {
		t.Fatalf("want *UnknownMethodError, got %v", err)
	}
	if Classify(err) != ClassUnknownMethod {
		t.Errorf("Classify = %q, want %q", Classify(err), ClassUnknownMethod)
	}
}

func TestNewValidatesDeps(t *testing.T) {
	deps, _ := testDeps(t)
	if _, err := New("rag", Deps{Client: deps.Client}); err == nil {
		t.Error("rag without an index should fail at construction")
	}
	if _, err := New("ours", Deps{Client: deps.Client, Store: deps.Store}); err == nil {
		t.Error("ours without an index should fail at construction")
	}
	if _, err := New("io", Deps{}); err == nil {
		t.Error("io without a client should fail at construction")
	}
}

// TestToGNeedsNoEncoder: tog explores the store and never embeds, so it
// builds from a client and a store alone and answers exactly as it does
// with an encoder wired in.
func TestToGNeedsNoEncoder(t *testing.T) {
	deps, w := testDeps(t)
	city := w.Entities[w.OfKind(world.KindCity)[0]]
	q := Query{
		Text:    fmt.Sprintf("What is the population of %s?", city.Name),
		Anchors: []string{city.Name},
	}
	bare, err := New("tog", Deps{Client: deps.Client, Store: deps.Store})
	if err != nil {
		t.Fatalf("tog without an encoder: %v", err)
	}
	got, err := bare.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New("tog", deps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answer == "" || got.Answer != want.Answer {
		t.Errorf("tog without an encoder answered %q, with one %q", got.Answer, want.Answer)
	}
	if got.LLMCalls != want.LLMCalls {
		t.Errorf("tog without an encoder made %d LLM calls, with one %d", got.LLMCalls, want.LLMCalls)
	}
}

// TestAllMethodsAnswer is the acceptance check: every registry method is
// constructible via New and answers a question through the uniform API,
// with usage accounting filled in.
func TestAllMethodsAnswer(t *testing.T) {
	deps, w := testDeps(t)
	person := w.Entities[w.OfKind(world.KindPerson)[0]]
	q := Query{
		Text:    fmt.Sprintf("Where was %s born?", person.Name),
		Anchors: []string{person.Name},
	}
	for _, name := range Names() {
		ans, err := New(name, deps)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if ans.Name() != name {
			t.Errorf("Name() = %q, want %q", ans.Name(), name)
		}
		res, err := ans.Answer(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Answer == "" {
			t.Errorf("%s: empty answer", name)
		}
		if res.Method != name {
			t.Errorf("%s: result method = %q", name, res.Method)
		}
		if res.Model != "sim-gpt-3.5" {
			t.Errorf("%s: result model = %q", name, res.Model)
		}
		if res.LLMCalls < 1 || res.PromptTokens < 1 {
			t.Errorf("%s: usage accounting empty: %+v", name, res)
		}
		if res.Trace == nil {
			t.Errorf("%s: nil trace, want stage spans", name)
			continue
		}
		if len(res.Trace.Stages) == 0 {
			t.Errorf("%s: trace has no stage spans", name)
		}
		var spanCalls int
		for _, sp := range res.Trace.Stages {
			if sp.Err != "" {
				t.Errorf("%s: stage %s carries error class %q", name, sp.Stage, sp.Err)
			}
			spanCalls += sp.LLMCalls
		}
		if spanCalls != res.LLMCalls {
			t.Errorf("%s: stage spans account %d LLM calls, result says %d", name, spanCalls, res.LLMCalls)
		}
		// Pipeline-backed methods additionally carry the graph artefacts.
		if name == "ours" && res.Trace.Gg == nil {
			t.Errorf("%s: trace missing gold graph", name)
		}
	}
}

func TestAnswerRejectsEmptyQuery(t *testing.T) {
	deps, _ := testDeps(t)
	ans, err := New("io", deps)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ans.Answer(context.Background(), Query{Text: "   "})
	var invalid *InvalidQueryError
	if !errors.As(err, &invalid) {
		t.Fatalf("want *InvalidQueryError, got %v", err)
	}
	if Classify(err) != ClassInvalidQuery {
		t.Errorf("Classify = %q", Classify(err))
	}
}

// TestCancellationMidPipeline cancels the context from inside the first
// LLM call of a pipeline run: step 1 (pseudo-graph generation) completes,
// and the run must abort with context.Canceled at the next LLM step
// instead of finishing.
func TestCancellationMidPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	scripted := llm.NewScripted().
		OnFunc(prompts.TaskPseudoGraph, func(string) (string, error) {
			cancel() // caller gives up while the pipeline is mid-flight
			return "```\nCREATE (c:City {name: 'Beijing', population: 100})\n```", nil
		}).
		On(prompts.TaskVerify, "Beijing | population | 100").
		On(prompts.TaskGraphQA, "the answer is {100}.")

	st := kg.NewStore(kg.SourceWikidata)
	st.AddAll([]kg.Triple{{Subject: "Beijing", Relation: "population", Object: "21893095"}})
	st.Freeze()
	enc := embed.NewEncoder()
	deps := Deps{Client: scripted, Store: st, Index: vecstore.Build(enc, st), Encoder: enc}

	ans, err := New("ours", deps)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ans.Answer(ctx, Query{Text: "What is the population of Beijing?"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if Classify(err) != ClassCanceled {
		t.Errorf("Classify = %q, want %q", Classify(err), ClassCanceled)
	}
}

// TestAnswerPreCancelled: an already-cancelled context never reaches the
// method.
func TestAnswerPreCancelled(t *testing.T) {
	deps, _ := testDeps(t)
	ans, err := New("cot", deps)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ans.Answer(ctx, Query{Text: "q?"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestDeadlineClassified(t *testing.T) {
	deps, _ := testDeps(t)
	ans, err := New("cot", deps)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	_, err = ans.Answer(ctx, Query{Text: "q?"})
	if Classify(err) != ClassDeadline {
		t.Fatalf("Classify = %q (err %v), want %q", Classify(err), err, ClassDeadline)
	}
}

func TestPerRequestOverrides(t *testing.T) {
	deps, w := testDeps(t)
	person := w.Entities[w.OfKind(world.KindPerson)[3]]
	q := Query{Text: fmt.Sprintf("Where was %s born?", person.Name)}

	ans, err := New("sc", deps)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ans.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	one := 1
	q.Overrides.Samples = &one
	single, err := ans.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if want := baselines.DefaultSCConfig().Samples; base.LLMCalls != want || single.LLMCalls != 1 {
		t.Errorf("SC call counts: base %d (want %d), overridden %d (want 1)",
			base.LLMCalls, want, single.LLMCalls)
	}
}

func TestWithCoreConfigOption(t *testing.T) {
	deps, _ := testDeps(t)
	cfg := core.DefaultConfig()
	cfg.TopK = 3
	if _, err := New("ours", deps, WithCoreConfig(cfg), WithModelLabel("custom")); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineMemoPersistsAcrossQueries: pipeline-backed methods rebuild
// core.Pipeline per query, so the embedding memo must live at the
// answerer level to warm across questions.
func TestPipelineMemoPersistsAcrossQueries(t *testing.T) {
	deps, w := testDeps(t)
	ans, err := New("ours", deps)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Text: "What is the population of " + w.Entities[w.OfKind(world.KindCity)[0]].Name + "?"}
	if _, err := ans.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	m := ans.(*method)
	after1 := m.opts.Core.Memo.Stats()
	if after1.Misses == 0 {
		t.Fatal("first query should populate the answerer-level memo")
	}
	if _, err := ans.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	after2 := m.opts.Core.Memo.Stats()
	if after2.Hits <= after1.Hits {
		t.Fatalf("repeat query should hit the memo: hits %d -> %d", after1.Hits, after2.Hits)
	}
	if after2.Misses != after1.Misses {
		t.Fatalf("repeat query re-encoded: misses %d -> %d", after1.Misses, after2.Misses)
	}
}
