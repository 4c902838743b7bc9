// Command failures runs the PG&AKV method ("ours", through the answer
// registry) over a dataset and attributes each wrong answer, from its
// trace, to the stage that lost it — the analysis behind the paper's
// §IV-E error discussion ("the main errors in the model's verification
// process were caused by...").
//
// Stages, in pipeline order:
//
//	pseudo-empty   Cypher failed to decode; no pseudo-graph at all
//	gg-empty       retrieval/pruning kept no subject (often a mangled
//	               tail-entity spelling)
//	gg-missed      a gold graph was built but does not contain the answer
//	gf-missed      Gg had the answer but verification lost it
//	answer-missed  Gf had the answer but answer generation missed it
//
// Usage:
//
//	failures -dataset simple|qald|nature [-model gpt4] [-kg freebase] [-n 100]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/kg"
	"repro/internal/metrics"
	"repro/internal/qa"
)

func main() {
	dataset := flag.String("dataset", "simple", "dataset: simple|qald|nature")
	model := flag.String("model", "gpt3.5", "model grade: gpt3.5|gpt4")
	kgSource := flag.String("kg", "", "KG source (default: the dataset's own)")
	n := flag.Int("n", 0, "max questions (0 = all)")
	quick := flag.Bool("quick", true, "use the small environment")
	verbose := flag.Bool("v", false, "print each failing question")
	flag.Parse()

	if err := run(*dataset, *model, *kgSource, *n, *quick, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "failures:", err)
		os.Exit(1)
	}
}

func run(dataset, model, kgSource string, n int, quick, verbose bool) error {
	cfg := bench.DefaultEnvConfig()
	if quick {
		cfg = bench.QuickEnvConfig()
	}
	env, err := bench.NewEnv(cfg)
	if err != nil {
		return err
	}

	var ds *qa.Dataset
	switch dataset {
	case "simple":
		ds = env.Suite.Simple
	case "qald":
		ds = env.Suite.QALD
	case "nature":
		ds = env.Suite.Nature
	default:
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	src := bench.DefaultSource(ds.Name)
	if kgSource != "" {
		if src, err = kg.ParseSource(kgSource); err != nil {
			return err
		}
	}
	modelName := bench.ModelGPT35
	if strings.Contains(model, "4") {
		modelName = bench.ModelGPT4
	}
	ans, err := env.Answerer(bench.MethodOurs, modelName, src)
	if err != nil {
		return err
	}

	questions := ds.Questions
	if n > 0 && n < len(questions) {
		questions = questions[:n]
	}

	stages := map[string]int{}
	right := 0
	for _, q := range questions {
		res, err := ans.Answer(context.Background(), bench.Query(bench.MethodOurs, modelName, q))
		if err != nil {
			return err
		}
		ok := false
		if q.Open() {
			ok = metrics.RougeLMulti(res.Answer, q.Refs) >= 0.30
		} else {
			ok = metrics.Hit1(res.Answer, q.Golds) > 0
		}
		if ok {
			right++
			continue
		}
		stage := attribute(res.Trace.Gp.Len(), res.Trace.Gg, res.Trace.Gf, q)
		stages[stage]++
		if verbose {
			fmt.Printf("FAIL [%s] %s\n  answer: %.120s\n", stage, q.Text, res.Answer)
		}
	}

	total := len(questions)
	fmt.Printf("%s on %s KG with %s: %d/%d correct (%.1f%%)\n",
		ds.Name, src, modelName, right, total, 100*float64(right)/float64(total))
	fmt.Println("failure attribution:")
	for _, stage := range []string{"pseudo-empty", "gg-empty", "gg-missed", "gf-missed", "answer-missed"} {
		if c := stages[stage]; c > 0 {
			fmt.Printf("  %-14s %3d (%.1f%% of questions)\n", stage, c, 100*float64(c)/float64(total))
		}
	}
	return nil
}

// attribute decides which stage lost a wrong answer.
func attribute(gpLen int, gg, gf interface {
	Len() int
	String() string
}, q qa.Question) string {
	switch {
	case gpLen == 0:
		return "pseudo-empty"
	case gg.Len() == 0:
		return "gg-empty"
	case !containsGold(gg.String(), q):
		return "gg-missed"
	case !containsGold(gf.String(), q):
		return "gf-missed"
	default:
		return "answer-missed"
	}
}

// containsGold reports whether the graph text contains any acceptable
// answer surface (normalised substring check; open questions use the first
// reference's leading entity mentions as a proxy).
func containsGold(graphText string, q qa.Question) bool {
	hay := metrics.NormalizeAnswer(graphText)
	targets := q.Golds
	if q.Open() && len(q.Refs) > 0 {
		targets = []string{q.Refs[0]}
		// A graph "contains" an open answer when it mentions a decent
		// share of the reference's vocabulary; approximate with the first
		// sentence.
		first := q.Refs[0]
		if i := strings.IndexByte(first, '.'); i > 0 {
			targets = []string{first[:i]}
		}
	}
	for _, g := range targets {
		ng := metrics.NormalizeAnswer(g)
		if ng != "" && strings.Contains(hay, ng) {
			return true
		}
	}
	return false
}
