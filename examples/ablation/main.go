// Ablation: answer the same questions with (a) no graph (CoT), (b) the raw
// pseudo-graph Gp (the registry's "ours-gp"), and (c) the verified graph
// Gf ("ours") — the conditions of the paper's Tables IV and V. Shows
// concretely how verification turns a hallucinated value into the KG's
// current one.
//
//	go run ./examples/ablation
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/answer"
	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/qa"
)

func main() {
	env, err := bench.NewEnv(bench.QuickEnvConfig())
	if err != nil {
		log.Fatal(err)
	}
	src := bench.DefaultSource("QALD")
	ask := func(method string, q qa.Question) answer.Result {
		ans, err := env.Answerer(method, bench.ModelGPT4, src)
		if err != nil {
			log.Fatal(err)
		}
		res, err := ans.Answer(context.Background(), bench.Query(method, bench.ModelGPT4, q))
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	questions := env.Suite.QALD.Questions[:10]
	var cotRight, gpRight, gfRight int
	for _, q := range questions {
		cot := ask(bench.MethodCoT, q)
		gp := ask(bench.MethodOursGp, q)
		full := ask(bench.MethodOurs, q)

		c := metrics.Hit1(cot.Answer, q.Golds)
		g := metrics.Hit1(gp.Answer, q.Golds)
		f := metrics.Hit1(full.Answer, q.Golds)
		cotRight += int(c)
		gpRight += int(g)
		gfRight += int(f)
		fmt.Printf("Q: %s\n  CoT %v | w/Gp %v | w/Gf %v   (gold: %v)\n",
			q.Text, c == 1, g == 1, f == 1, q.Golds[0])
		// Show one corrected hallucination in detail.
		if f == 1 && g == 0 && full.Trace.Gp.Len() > 0 {
			fmt.Printf("    Gp said: %s\n    Gf said: %s\n",
				full.Trace.Gp.Triples[0], full.Trace.Gf.Triples[0])
		}
	}
	n := len(questions)
	fmt.Printf("\ntotals over %d QALD questions:  CoT %d | w/Gp %d | w/Gf %d\n",
		n, cotRight, gpRight, gfRight)
	fmt.Println("(Gf — the verified graph — should lead, per Tables IV/V.)")
}
