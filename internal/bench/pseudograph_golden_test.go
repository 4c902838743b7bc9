package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/datasets"
	"repro/internal/llm"
	"repro/internal/node"
	"repro/internal/prompts"
	"repro/internal/world"
)

// pseudoGraphsGolden holds what the decode path makes of every paper-scale
// pseudo-graph completion: for each model, dataset and question (world
// seed 42) a header line "<model> <dataset> <index>", then the decoded
// triples in order, or the decode error, each indented by two spaces.
// When a change means to move a pseudo-graph, TestPseudoGraphsMatchGolden
// writes the current listing to pseudo-graphs.txt in the system's temp
// directory; review the difference and copy that file over the golden.
const pseudoGraphsGolden = "../../testdata/baselines/pseudo-graphs.txt"

// pseudoGraphListing renders the golden's listing. It builds only what
// the completions depend on (the world, the datasets and the two simulated
// models), not a serving node. Each completion is asked the way the
// pipeline asks it (default prompts, greedy) and goes through
// core.ExtractCypher and cypher.Decode as in the pipeline.
func pseudoGraphListing(t *testing.T) []string {
	t.Helper()
	cfg := DefaultEnvConfig()
	cfg.World.Seed = cfg.WorldSeed
	w, err := world.Generate(cfg.World)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := datasets.Build(w, cfg.Data)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name   string
		params llm.GradeParams
	}{{node.ModelGPT35, llm.GPT35Params()}, {node.ModelGPT4, llm.GPT4Params()}}
	var lines []string
	for _, m := range models {
		model := llm.NewSim(w, m.params, cfg.WorldSeed)
		for _, ds := range suite.Datasets() {
			for i, q := range ds.Questions {
				resp, err := model.Complete(context.Background(), llm.Request{Prompt: prompts.PseudoGraph(q.Text)})
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s %s %d", m.name, ds.Name, i))
				g, err := cypher.Decode(core.ExtractCypher(resp.Text))
				if err != nil {
					lines = append(lines, "  error: "+err.Error())
					continue
				}
				for _, tr := range g.Triples {
					lines = append(lines, "  "+tr.String())
				}
			}
		}
	}
	return lines
}

// TestPseudoGraphsMatchGolden gates the decode path at paper scale: every
// pseudo-graph completion of both models decodes to the committed triples,
// in the committed order, or fails with the committed error text. The
// test then shows its comparison can fail: the golden with one triple
// doctored is reported.
func TestPseudoGraphsMatchGolden(t *testing.T) {
	got := pseudoGraphListing(t)
	data, err := os.ReadFile(pseudoGraphsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if d := diffLines(got, want); d != "" {
		path := filepath.Join(os.TempDir(), "pseudo-graphs.txt")
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Log(err)
		}
		t.Fatalf("pseudo-graphs differ from %s: %s (current listing in %s)", pseudoGraphsGolden, d, path)
	}

	doctored := slices.Clone(want)
	i := slices.IndexFunc(doctored, func(l string) bool { return strings.HasPrefix(l, "  <") })
	if i < 0 {
		t.Fatalf("%s holds no triple", pseudoGraphsGolden)
	}
	doctored[i] = strings.Replace(doctored[i], "> <", "> <x", 1)
	if d := diffLines(got, doctored); d == "" {
		t.Fatal("a doctored golden triple went unreported")
	}
}

// diffLines describes the first line where got and want differ, or
// returns "" when they are equal.
func diffLines(got, want []string) string {
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g, w)
		}
	}
	return ""
}
