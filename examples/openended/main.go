// Open-ended QA: the paper's motivating scenario. Compares CoT, RAG and
// PG&AKV on "who is a leading figure in field X" questions, scoring each
// answer with ROUGE-L against the dataset references — the Nature
// Questions setting of Table II's last column.
//
//	go run ./examples/openended
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/baselines"
	"repro/internal/bench"
	"repro/internal/metrics"
)

func main() {
	env, err := bench.NewEnv(bench.QuickEnvConfig())
	if err != nil {
		log.Fatal(err)
	}
	model := env.Models[bench.ModelGPT35]
	src := bench.DefaultSource("NatureQuestions")
	pipeline, err := env.Pipeline(bench.ModelGPT35, src)
	if err != nil {
		log.Fatal(err)
	}

	var cotTotal, ragTotal, oursTotal float64
	n := 5
	for _, q := range env.Suite.Nature.Questions[:n] {
		fmt.Println("Q:", q.Text)

		cot, err := baselines.CoT(context.Background(), model, q.Text)
		if err != nil {
			log.Fatal(err)
		}
		rag, err := baselines.RAG(context.Background(), model, env.Substrates[src].Current().Index, q.Text, baselines.DefaultRAGConfig())
		if err != nil {
			log.Fatal(err)
		}
		res, err := pipeline.Answer(context.Background(), q.Text)
		if err != nil {
			log.Fatal(err)
		}

		cotScore := metrics.RougeLMulti(cot, q.Refs)
		ragScore := metrics.RougeLMulti(rag, q.Refs)
		oursScore := metrics.RougeLMulti(res.Answer, q.Refs)
		cotTotal += cotScore
		ragTotal += ragScore
		oursTotal += oursScore

		fmt.Printf("  CoT    ROUGE-L %.3f  | %.90s...\n", cotScore, cot)
		fmt.Printf("  RAG    ROUGE-L %.3f  | %.90s...\n", ragScore, rag)
		fmt.Printf("  PG&AKV ROUGE-L %.3f  | %.90s...\n", oursScore, res.Answer)
		fmt.Printf("  (pseudo-graph had %d triples; %d subjects survived pruning)\n\n",
			res.Trace.Gp.Len(), len(res.Trace.Kept))
	}
	fmt.Printf("mean over %d questions:  CoT %.3f   RAG %.3f   PG&AKV %.3f\n",
		n, cotTotal/float64(n), ragTotal/float64(n), oursTotal/float64(n))
}
