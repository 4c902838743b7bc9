package baselines

import (
	"context"
	"testing"

	"repro/internal/core/exec"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/prompts"
	"repro/internal/vecstore"
	"repro/internal/world"
)

func testEnv(t testing.TB) (*world.World, *llm.SimLM, *kg.Store, *vecstore.Sharded) {
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
	m := llm.NewSim(w, llm.GPT4Params(), 42)
	st := world.WikidataSchema().Render(w)
	idx := vecstore.Build(embed.NewEncoder(), st)
	return w, m, st, idx
}

// run executes a baseline composition over a fresh state, the way the
// answer registry runs it, rendering from the embedded defaults unless
// the state names its own view.
func run(st State, stages []exec.Stage[State]) (string, error) {
	if st.View == nil {
		st.View = prompts.Default().View()
	}
	if _, err := exec.Run(context.Background(), &st, exec.Options{}, stages...); err != nil {
		return "", err
	}
	return st.Answer, nil
}

func TestIOAndCoTProduceMarkedAnswers(t *testing.T) {
	w, m, _, _ := testEnv(t)
	q := "Where was " + w.Entities[w.OfKind(world.KindPerson)[0]].Name + " born?"
	for name, stages := range map[string][]exec.Stage[State]{
		"IO": IOStages(m), "CoT": CoTStages(m),
	} {
		out, err := run(State{Question: q}, stages)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if metrics.ExtractMarked(out) == out {
			t.Errorf("%s answer unmarked: %q", name, out)
		}
	}
}

func TestSCVoteMajority(t *testing.T) {
	got := scVote([]string{"the answer is {Paris}.", "I think {Rome}.", "surely {Paris}!"})
	if metrics.NormalizeAnswer(metrics.ExtractMarked(got)) != "paris" {
		t.Errorf("vote = %q", got)
	}
}

func TestSCVoteTieBreaksEarliest(t *testing.T) {
	got := scVote([]string{"{Rome} maybe", "{Paris} maybe"})
	if metrics.NormalizeAnswer(metrics.ExtractMarked(got)) != "rome" {
		t.Errorf("tie break = %q", got)
	}
}

func TestSCMedoid(t *testing.T) {
	samples := []string{
		"alpha beta gamma delta",
		"alpha beta gamma epsilon",
		"totally different words here",
	}
	got := scMedoid(samples)
	if got == samples[2] {
		t.Errorf("medoid picked the outlier: %q", got)
	}
	if scMedoid(samples[:1]) != samples[0] {
		t.Error("single-sample medoid should be identity")
	}
}

func TestSCDeterministic(t *testing.T) {
	w, m, _, _ := testEnv(t)
	q := "Where was " + w.Entities[w.OfKind(world.KindPerson)[5]].Name + " born?"
	a, err := run(State{Question: q}, SCStages(m, DefaultSCConfig()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(State{Question: q}, SCStages(m, DefaultSCConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("SC not deterministic")
	}
}

func TestRAGRetrievesAndAnswers(t *testing.T) {
	w, m, _, idx := testEnv(t)
	city := w.Entities[w.OfKind(world.KindCity)[0]]
	q := "What is the population of " + city.Name + "?"
	out, err := run(State{Question: q}, RAGStages(m, idx, DefaultRAGConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if metrics.ExtractMarked(out) == out {
		t.Errorf("RAG answer unmarked: %q", out)
	}
}

func TestToGAnchorsOnGoldEntity(t *testing.T) {
	w, m, st, _ := testEnv(t)
	city := w.Entities[w.OfKind(world.KindCity)[0]]
	q := "What is the population of " + city.Name + "?"
	out, err := run(State{Question: q, Anchors: []string{city.Name}}, ToGStages(m, st, DefaultToGConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// Cities have only two relations; both fit the beam, so the answer
	// must be the latest gold population.
	pops := w.FactsSR(city.ID, world.RelPopulation)
	want := pops[len(pops)-1].Literal
	if metrics.Hit1(out, []string{want}) != 1 {
		t.Errorf("ToG answer %q, want %q", out, want)
	}
}

func TestToGUnknownAnchor(t *testing.T) {
	_, m, st, _ := testEnv(t)
	out, err := run(State{Question: "Where was Nobody born?", Anchors: []string{"Nobody At All"}}, ToGStages(m, st, DefaultToGConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Error("ToG with unknown anchor should still answer (parametric fallback)")
	}
}

func TestPruneRelationsBeam(t *testing.T) {
	_, m, _, _ := testEnv(t)
	cands := []string{"r1", "r2"}
	kept, err := pruneRelations(context.Background(), m, prompts.Default().View(), "question?", cands, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 {
		t.Errorf("small candidate set should pass through, got %v", kept)
	}
	many := []string{"place of birth", "profession", "award received", "nationality", "educated at"}
	kept, err = pruneRelations(context.Background(), m, prompts.Default().View(), "Where was X born?", many, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 {
		t.Errorf("beam = %v, want 2 relations", kept)
	}
}

func TestScoreRelationsPromptClassified(t *testing.T) {
	p := prompts.ScoreRelations("q?", []string{"a", "b", "c"})
	if prompts.Classify(p) != prompts.TaskScoreRels {
		t.Error("score-relations prompt misclassified")
	}
}
