package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/vecstore"
)

// fakeClient scripts LLM behaviour per task kind, decoupling pipeline tests
// from the simulated model.
type fakeClient struct {
	pseudo  string // returned for pseudo-graph prompts
	verify  func(p prompts.VerifyParts) string
	answer  func(p prompts.GraphQAParts) string
	failAll bool
	calls   int
}

func (f *fakeClient) Name() string { return "fake" }

func (f *fakeClient) Complete(_ context.Context, req llm.Request) (llm.Response, error) {
	f.calls++
	if f.failAll {
		return llm.Response{}, errors.New("boom")
	}
	switch prompts.Classify(req.Prompt) {
	case prompts.TaskPseudoGraph:
		return llm.Response{Text: f.pseudo}, nil
	case prompts.TaskVerify:
		parts, err := prompts.ExtractVerifyParts(req.Prompt)
		if err != nil {
			return llm.Response{}, err
		}
		return llm.Response{Text: f.verify(parts)}, nil
	case prompts.TaskGraphQA:
		parts, err := prompts.ExtractGraphQAParts(req.Prompt)
		if err != nil {
			return llm.Response{}, err
		}
		return llm.Response{Text: f.answer(parts)}, nil
	default:
		return llm.Response{Text: "unexpected task"}, nil
	}
}

// testStore builds a small Wikidata-flavoured store with a time-varying
// fact and a chain.
func testStore(t *testing.T) (*kg.Store, *vecstore.Sharded) {
	t.Helper()
	st := kg.NewStore(kg.SourceWikidata)
	st.AddAll([]kg.Triple{
		{Subject: "China", Relation: "population", Object: "1375198619", Ord: 0},
		{Subject: "China", Relation: "population", Object: "1443497378", Ord: 1},
		{Subject: "China", Relation: "capital", Object: "Beijing"},
		{Subject: "Beijing", Relation: "country", Object: "China"},
		{Subject: "Beijing", Relation: "population", Object: "21893095", Ord: 0},
		{Subject: "Lake Superior", Relation: "area", Object: "82350"},
		{Subject: "Lake Michigan", Relation: "area", Object: "57750"},
	})
	st.Freeze()
	return st, vecstore.Build(embed.NewEncoder(), st)
}

func passthroughVerify(p prompts.VerifyParts) string {
	// Echo the gold graph (a maximally-trusting verifier).
	g, err := kg.ParseGraph(p.GoldGraph)
	if err != nil {
		return p.ToFix
	}
	return g.String()
}

func answerEcho(p prompts.GraphQAParts) string {
	return "graph had " + fmt.Sprint(strings.Count(p.Graph, "<")/3) + " triples {X}"
}

func newTestPipeline(t *testing.T, client llm.Client) *Pipeline {
	t.Helper()
	st, idx := testStore(t)
	p, err := New(client, st, idx, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	st, idx := testStore(t)
	if _, err := New(nil, st, idx, DefaultConfig()); err == nil {
		t.Error("nil client accepted")
	}
	if _, err := New(&fakeClient{}, nil, idx, DefaultConfig()); err == nil {
		t.Error("nil store accepted")
	}
	// Zero config gets defaults.
	p, err := New(&fakeClient{}, st, idx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.TopK != 10 || p.cfg.MaxSubjectTriples != 12 {
		t.Errorf("defaults not applied: %+v", p.cfg)
	}
}

func TestExtractCypher(t *testing.T) {
	fenced := "plan text\n```\nCREATE (a:X {name:'a'})\n```\ntrailer"
	if got := ExtractCypher(fenced); got != "CREATE (a:X {name:'a'})" {
		t.Errorf("fenced extraction = %q", got)
	}
	bare := "some text\nCREATE (a:X {name:'a'})\nmore text\nMERGE (b:Y {name:'b'})"
	got := ExtractCypher(bare)
	if !strings.Contains(got, "CREATE") || !strings.Contains(got, "MERGE") {
		t.Errorf("bare extraction = %q", got)
	}
	if ExtractCypher("no code at all") != "" {
		t.Error("extraction from prose should be empty")
	}
	// An unfenced query line is prose to the decode path: only the CREATE
	// lines are kept.
	withMatch := "CREATE (a:X {name:'a'})\nMATCH (a:X) RETURN a.name\nCREATE (b:Y {name:'b'})"
	if got := ExtractCypher(withMatch); got != "CREATE (a:X {name:'a'})\nCREATE (b:Y {name:'b'})" {
		t.Errorf("extraction kept a MATCH line: %q", got)
	}
}

func TestGeneratePseudoGraphDecodes(t *testing.T) {
	client := &fakeClient{
		pseudo: "```\nCREATE (c:Country {name: 'China'})-[:POPULATION]->(v:Value {name: '1400000000'})\n```",
	}
	p := newTestPipeline(t, client)
	var tr Trace
	gp, err := p.generatePseudoGraph(context.Background(), p.client, "What is the population of China?", &tr)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Len() != 1 || gp.Triples[0].Subject != "China" || gp.Triples[0].Relation != "population" {
		t.Errorf("Gp = %s", gp)
	}
	if tr.PseudoErr != nil || tr.PseudoCode == "" {
		t.Errorf("trace = %+v", tr)
	}
}

func TestGeneratePseudoGraphMalformedIsEmptyNotError(t *testing.T) {
	client := &fakeClient{pseudo: "```\nCREATE (broken\n```"}
	p := newTestPipeline(t, client)
	var tr Trace
	gp, err := p.generatePseudoGraph(context.Background(), p.client, "q?", &tr)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Len() != 0 {
		t.Errorf("malformed cypher decoded to %s", gp)
	}
	if tr.PseudoErr == nil {
		t.Error("trace should record the decode error")
	}
}

func TestQueryAndPruneFindsSubjectBlock(t *testing.T) {
	p := newTestPipeline(t, &fakeClient{})
	gp := kg.NewGraph(kg.NewTriple("China", "number of population", "1463725000"))
	var tr Trace
	gg := p.QueryAndPrune(gp, &tr)
	if gg.Len() == 0 {
		t.Fatal("Gg empty")
	}
	if !gg.ContainsSR("China", "population") {
		t.Errorf("Gg lacks China population block:\n%s", gg)
	}
	// Time-varying block must be in chronological order.
	var pops []string
	for _, tr := range gg.Triples {
		if tr.Subject == "China" && tr.Relation == "population" {
			pops = append(pops, tr.Object)
		}
	}
	if len(pops) != 2 || pops[0] != "1375198619" || pops[1] != "1443497378" {
		t.Errorf("population block order: %v", pops)
	}
	if len(tr.Kept) == 0 || tr.Kept[0].Subject != "China" {
		t.Errorf("kept = %v", tr.Kept)
	}
}

func TestQueryAndPruneEmptyGp(t *testing.T) {
	p := newTestPipeline(t, &fakeClient{})
	if gg := p.QueryAndPrune(&kg.Graph{}, nil); gg.Len() != 0 {
		t.Error("empty Gp should yield empty Gg")
	}
}

func TestQueryAndPruneThresholdFiltersNoise(t *testing.T) {
	st, idx := testStore(t)
	cfg := DefaultConfig()
	cfg.ConfidenceThreshold = 0.99 // only the best subject survives
	p, err := New(&fakeClient{}, st, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gp := kg.NewGraph(kg.NewTriple("China", "population", "1400000000"))
	var tr Trace
	p.QueryAndPrune(gp, &tr)
	if len(tr.Kept) != 1 || tr.Kept[0].Subject != "China" {
		t.Errorf("kept at 0.99 threshold = %v", tr.Kept)
	}
}

func TestChainGatedExpansion(t *testing.T) {
	p := newTestPipeline(t, &fakeClient{})
	// Chain pseudo-graph: Beijing's country is China (object China is also
	// a pseudo subject via second triple) -> expansion should pull China's
	// block when anchored at Beijing.
	gp := kg.NewGraph(
		kg.NewTriple("Beijing", "country", "China"),
		kg.NewTriple("China", "capital", "Beijing"),
	)
	gg := p.QueryAndPrune(gp, nil)
	if !gg.ContainsSR("China", "population") {
		t.Errorf("chain expansion missing China block:\n%s", gg)
	}
	// Flat pseudo-graph (no chaining): no expansion beyond matched subjects.
	flat := kg.NewGraph(kg.NewTriple("Lake Superior", "area", "82000"))
	ggFlat := p.QueryAndPrune(flat, nil)
	if ggFlat.ContainsSR("China", "population") {
		t.Errorf("flat graph should not expand into China:\n%s", ggFlat)
	}
}

func TestVerifyEmptyGgPassesThrough(t *testing.T) {
	p := newTestPipeline(t, &fakeClient{verify: passthroughVerify})
	gp := kg.NewGraph(kg.NewTriple("a", "r", "x"))
	gf, err := p.verify(context.Background(), p.client, "q?", gp, &kg.Graph{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gf != gp {
		t.Error("empty Gg should pass Gp through unchanged")
	}
}

func TestVerifyUnparsableFallsBackToGp(t *testing.T) {
	client := &fakeClient{verify: func(prompts.VerifyParts) string { return "total garbage" }}
	p := newTestPipeline(t, client)
	gp := kg.NewGraph(kg.NewTriple("a", "r", "x"))
	gg := kg.NewGraph(kg.NewTriple("b", "r", "y"))
	gf, err := p.verify(context.Background(), p.client, "q?", gp, gg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gf.Len() != 1 || !gf.Contains(gp.Triples[0]) {
		t.Errorf("fallback Gf = %s", gf)
	}
}

func TestAnswerEndToEnd(t *testing.T) {
	client := &fakeClient{
		pseudo: "```\nCREATE (c:Country {name: 'China'})-[:POPULATION]->(v:Value {name: '9999'})\n```",
		verify: passthroughVerify,
		answer: func(p prompts.GraphQAParts) string {
			g, err := kg.ParseGraph(p.Graph)
			if err != nil || g.Len() == 0 {
				return "{nothing}"
			}
			// Return the last population value in the graph.
			for i := len(g.Triples) - 1; i >= 0; i-- {
				if g.Triples[i].Relation == "population" && g.Triples[i].Subject == "China" {
					return "the population is {" + g.Triples[i].Object + "}"
				}
			}
			return "{missing}"
		},
	}
	p := newTestPipeline(t, client)
	res, err := p.Answer(context.Background(), "What is the population of China?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Answer, "{1443497378}") {
		t.Errorf("answer = %q", res.Answer)
	}
	tr := res.Trace
	if tr.Gp.Len() == 0 || tr.Gg.Len() == 0 || tr.Gf.Len() == 0 {
		t.Errorf("trace graphs empty: gp=%d gg=%d gf=%d", tr.Gp.Len(), tr.Gg.Len(), tr.Gf.Len())
	}
	if calls := stageCalls(tr); calls != 3 {
		t.Errorf("LLM calls = %d, want 3", calls)
	}
}

func TestAnswerRobustToGarbagePseudo(t *testing.T) {
	// The pipeline must not error when the pseudo-graph is garbage: it
	// degrades to an empty-graph answer (parametric fallback) — the
	// robustness property of Table I.
	client := &fakeClient{
		pseudo: "I cannot write Cypher today.",
		verify: passthroughVerify,
		answer: func(p prompts.GraphQAParts) string {
			if strings.TrimSpace(p.Graph) == "" {
				return "fallback {parametric}"
			}
			return "{graph}"
		},
	}
	p := newTestPipeline(t, client)
	res, err := p.Answer(context.Background(), "q?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Answer, "parametric") {
		t.Errorf("answer = %q", res.Answer)
	}
}

func TestAnswerPropagatesTransportErrors(t *testing.T) {
	p := newTestPipeline(t, &fakeClient{failAll: true})
	if _, err := p.Answer(context.Background(), "q?"); err == nil {
		t.Error("transport error swallowed")
	}
}

func TestAnswerFromGraphNilGraph(t *testing.T) {
	client := &fakeClient{answer: answerEcho}
	p := newTestPipeline(t, client)
	out, err := p.answerFromGraph(context.Background(), p.client, "q?", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 triples") {
		t.Errorf("nil graph answer = %q", out)
	}
}

func TestMaxPseudoTriplesCap(t *testing.T) {
	st, idx := testStore(t)
	cfg := DefaultConfig()
	cfg.MaxPseudoTriples = 2
	p, err := New(&fakeClient{}, st, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gp := &kg.Graph{}
	for i := 0; i < 10; i++ {
		gp.Add(kg.NewTriple(fmt.Sprintf("s%d", i), "r", "o"))
	}
	var tr Trace
	p.QueryAndPrune(gp, &tr)
	if len(tr.Gt) > 2*cfg.TopK {
		t.Errorf("Gt = %d hits, cap ignored", len(tr.Gt))
	}
}

func TestCalibrate(t *testing.T) {
	if calibrate(0, 1) != 0 || calibrate(-1, 1) != 0 || calibrate(1, 0) != 0 {
		t.Error("degenerate calibrate inputs")
	}
	if calibrate(0.5, 0.5) != 1 {
		t.Error("self-max should calibrate to 1")
	}
	if c := calibrate(0.35, 0.5); c < 0.69 || c > 0.71 {
		t.Errorf("calibrate(0.35, 0.5) = %v, want 0.7", c)
	}
}

func TestPruneStrategies(t *testing.T) {
	st, idx := testStore(t)
	gp := kg.NewGraph(kg.NewTriple("China", "population", "1400000000"))

	keptOf := func(strat PruneStrategy, threshold float64) []SubjectConfidence {
		cfg := DefaultConfig()
		cfg.Prune = strat
		cfg.ConfidenceThreshold = threshold
		p, err := New(&fakeClient{}, st, idx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var tr Trace
		p.QueryAndPrune(gp, &tr)
		return tr.Kept
	}

	// With an impossible threshold, two-step keeps nothing while
	// count-only and none ignore the threshold.
	if kept := keptOf(PruneTwoStep, 1.1); len(kept) != 0 {
		t.Errorf("two-step at threshold 1.1 kept %v", kept)
	}
	if kept := keptOf(PruneCountOnly, 1.1); len(kept) == 0 {
		t.Error("count-only should ignore the threshold")
	}
	none := keptOf(PruneNone, 1.1)
	countOnly := keptOf(PruneCountOnly, 1.1)
	if len(none) < len(countOnly) {
		t.Errorf("none (%d) should keep at least as many subjects as count-only (%d)",
			len(none), len(countOnly))
	}
}

func TestPruneStrategyString(t *testing.T) {
	if PruneTwoStep.String() != "two-step" || PruneCountOnly.String() != "count-only" || PruneNone.String() != "none" {
		t.Error("strategy names wrong")
	}
}

// stageCalls is the run's LLM calls, as its stage spans count them.
func stageCalls(tr Trace) int {
	calls := 0
	for _, s := range tr.Stages {
		calls += s.LLMCalls
	}
	return calls
}
