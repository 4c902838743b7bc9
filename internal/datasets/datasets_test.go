package datasets

import (
	"strings"
	"testing"

	"repro/internal/kg"
	"repro/internal/qa"
	"repro/internal/world"
)

func testWorld(t testing.TB) *world.World {
	t.Helper()
	cfg := world.DefaultConfig()
	cfg.People = 120
	cfg.Cities = 40
	cfg.Countries = 16
	cfg.Works = 80
	cfg.Companies = 30
	cfg.Universities = 15
	cfg.Lakes = 25
	cfg.Mountains = 12
	cfg.Rivers = 25
	return world.MustGenerate(cfg)
}

func smallData() Config {
	return Config{Seed: 7, SimpleN: 50, QALDN: 30, NatureN: 15,
		TemporalN: 10, AggregationN: 10, AdversarialN: 8, NoisyN: 10}
}

func TestBuildSizes(t *testing.T) {
	s, err := Build(testWorld(t), smallData())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Simple.Questions) != 50 {
		t.Errorf("Simple = %d", len(s.Simple.Questions))
	}
	if len(s.QALD.Questions) != 30 {
		t.Errorf("QALD = %d", len(s.QALD.Questions))
	}
	if len(s.Nature.Questions) != 15 {
		t.Errorf("Nature = %d", len(s.Nature.Questions))
	}
}

func TestBuildDeterministic(t *testing.T) {
	w := testWorld(t)
	a, err := Build(w, smallData())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(w, smallData())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Simple.Questions {
		if a.Simple.Questions[i].Text != b.Simple.Questions[i].Text {
			t.Fatal("SimpleQuestions not deterministic")
		}
	}
	for i := range a.Nature.Questions {
		if a.Nature.Questions[i].Text != b.Nature.Questions[i].Text {
			t.Fatal("NatureQuestions not deterministic")
		}
	}
}

func TestQuestionsUnique(t *testing.T) {
	s, err := Build(testWorld(t), smallData())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range s.Datasets() {
		seen := map[string]bool{}
		for _, q := range ds.Questions {
			if seen[q.Text] {
				t.Fatalf("%s has duplicate question %q", ds.Name, q.Text)
			}
			seen[q.Text] = true
		}
	}
}

func TestMetricsAndSources(t *testing.T) {
	s, err := Build(testWorld(t), smallData())
	if err != nil {
		t.Fatal(err)
	}
	if s.Simple.Metric != "hit@1" || s.QALD.Metric != "hit@1" || s.Nature.Metric != "rouge-l" {
		t.Error("metrics wrong")
	}
	for _, q := range s.Simple.Questions {
		if q.SourceKG != kg.SourceFreebase {
			t.Fatal("SimpleQuestions should be Freebase-sourced")
		}
		if q.Open() {
			t.Fatal("SimpleQuestions should be precise")
		}
	}
	for _, q := range s.QALD.Questions {
		if q.SourceKG != kg.SourceWikidata {
			t.Fatal("QALD should be Wikidata-sourced")
		}
	}
	for _, q := range s.Nature.Questions {
		if !q.Open() || len(q.Refs) != 3 {
			t.Fatalf("Nature question %q: open=%v refs=%d", q.Text, q.Open(), len(q.Refs))
		}
	}
}

func TestQALDIsMultiStep(t *testing.T) {
	s, err := Build(testWorld(t), smallData())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range s.QALD.Questions {
		if q.Intent.Hops() < 2 {
			t.Errorf("QALD question %q has %d hops", q.Text, q.Intent.Hops())
		}
	}
	for _, q := range s.Simple.Questions {
		if q.Intent.Hops() != 1 {
			t.Errorf("Simple question %q has %d hops", q.Text, q.Intent.Hops())
		}
	}
}

// TestGoldsMatchResolver: every question's golds must equal a fresh
// resolution of its intent — the datasets cannot drift from the world.
func TestGoldsMatchResolver(t *testing.T) {
	w := testWorld(t)
	s, err := Build(w, smallData())
	if err != nil {
		t.Fatal(err)
	}
	res := &qa.Resolver{W: w}
	// Adversarial golds are fixed ("unanswerable"), not resolver-derived,
	// so that pack is excluded.
	for _, ds := range []*qa.Dataset{s.Simple, s.QALD, s.Temporal, s.Aggregation, s.Noisy} {
		for _, q := range ds.Questions {
			golds, err := res.Gold(q.Intent)
			if err != nil {
				t.Fatalf("%s %q: %v", ds.Name, q.Text, err)
			}
			if len(golds) != len(q.Golds) {
				t.Fatalf("%s %q: gold mismatch %v vs %v", ds.Name, q.Text, golds, q.Golds)
			}
			for i := range golds {
				if golds[i] != q.Golds[i] {
					t.Fatalf("%s %q: gold[%d] %q != %q", ds.Name, q.Text, i, golds[i], q.Golds[i])
				}
			}
		}
	}
}

// TestQuestionsParseBack: every generated question must parse back to its
// own intent (the invertibility contract the simulated LLM depends on).
func TestQuestionsParseBack(t *testing.T) {
	s, err := Build(testWorld(t), smallData())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range s.Datasets() {
		for _, q := range ds.Questions {
			in, err := qa.Parse(q.Text)
			if err != nil {
				t.Fatalf("%s: Parse(%q): %v", ds.Name, q.Text, err)
			}
			// The noisy pack lowercases subject surfaces, so subjects
			// round-trip up to case; everything else is exact.
			if in.Kind != q.Intent.Kind || !strings.EqualFold(in.Subject, q.Intent.Subject) {
				t.Fatalf("%s: %q parsed to %+v, generated as %+v", ds.Name, q.Text, in, q.Intent)
			}
		}
	}
}

func TestNatureRefsRealiseSupport(t *testing.T) {
	w := testWorld(t)
	s, err := Build(w, smallData())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range s.Nature.Questions {
		for i, ref := range q.Refs {
			if len(ref) < 20 {
				t.Errorf("%q ref %d suspiciously short: %q", q.Text, i, ref)
			}
		}
	}
}

// TestScenarioPacks pins the contract of each scenario pack: sizes, intent
// shapes, and the properties the packs exist to stress.
func TestScenarioPacks(t *testing.T) {
	w := testWorld(t)
	s, err := Build(w, smallData())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Temporal.Questions); n != 10 {
		t.Errorf("Temporal = %d", n)
	}
	if n := len(s.Aggregation.Questions); n != 10 {
		t.Errorf("Aggregation = %d", n)
	}
	if n := len(s.Adversarial.Questions); n != 8 {
		t.Errorf("Adversarial = %d", n)
	}
	if n := len(s.Noisy.Questions); n != 10 {
		t.Errorf("Noisy = %d", n)
	}

	res := &qa.Resolver{W: w}
	for _, q := range s.Temporal.Questions {
		if q.Intent.TRef == qa.TemporalCurrent {
			t.Errorf("temporal question %q asks about the current value", q.Text)
		}
	}
	for _, q := range s.Aggregation.Questions {
		if q.Intent.Kind != qa.KindCount {
			t.Errorf("aggregation question %q is not a count intent", q.Text)
		}
	}
	for _, q := range s.Adversarial.Questions {
		if len(q.Golds) != 1 || q.Golds[0] != qa.Unanswerable {
			t.Errorf("adversarial question %q golds = %v", q.Text, q.Golds)
		}
		// The premise must genuinely fail against the world.
		if golds, err := res.Gold(q.Intent); err == nil {
			t.Errorf("adversarial question %q resolves to %v", q.Text, golds)
		}
	}
	sawLower, sawCanonical := false, false
	for _, q := range s.Noisy.Questions {
		lower := strings.ToLower(q.Intent.Subject)
		switch {
		case strings.Contains(q.Text, q.Intent.Subject):
			sawCanonical = true
		case strings.Contains(q.Text, lower):
			sawLower = true
		default:
			t.Errorf("noisy question %q does not contain subject %q in either case", q.Text, q.Intent.Subject)
		}
	}
	if !sawLower || !sawCanonical {
		t.Errorf("noisy pack should mix cased and lowercased subjects (lower=%v canonical=%v)", sawLower, sawCanonical)
	}
}

func TestDescribe(t *testing.T) {
	s, err := Build(testWorld(t), smallData())
	if err != nil {
		t.Fatal(err)
	}
	if s.Describe() == "" {
		t.Error("empty describe")
	}
}

func TestBuildFailsOnImpossibleSizes(t *testing.T) {
	cfg := world.DefaultConfig()
	cfg.People = 20
	cfg.Cities = 16
	cfg.Countries = 15
	cfg.Works = 10
	cfg.Companies = 4
	cfg.Universities = 4
	cfg.Lakes = 4
	cfg.Mountains = 4
	cfg.Rivers = 4
	w := world.MustGenerate(cfg)
	// Demanding far more unique questions than the world can supply must
	// fail with an error, not loop forever.
	_, err := Build(w, Config{Seed: 1, SimpleN: 20000, QALDN: 1, NatureN: 1})
	if err == nil {
		t.Error("impossible dataset size accepted")
	}
}

func TestDefaultSource(t *testing.T) {
	if DefaultSource("SimpleQuestions") != kg.SourceFreebase {
		t.Error("SimpleQuestions should default to Freebase")
	}
	if DefaultSource("QALD") != kg.SourceWikidata {
		t.Error("QALD should default to Wikidata")
	}
	if DefaultSource("NatureQuestions") != kg.SourceWikidata {
		t.Error("NatureQuestions should default to Wikidata")
	}
}
