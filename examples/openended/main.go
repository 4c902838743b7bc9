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

	"repro/internal/answer"
	"repro/internal/bench"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/qa"
)

func main() {
	env, err := bench.NewEnv(bench.QuickEnvConfig())
	if err != nil {
		log.Fatal(err)
	}
	src := datasets.DefaultSource("NatureQuestions")
	ask := func(method string, q qa.Question) answer.Result {
		ans, err := env.Answerer(method, bench.ModelGPT35, src)
		if err != nil {
			log.Fatal(err)
		}
		res, err := ans.Answer(context.Background(), datasets.Query(method, bench.ModelGPT35, q))
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	var cotTotal, ragTotal, oursTotal float64
	n := 5
	for _, q := range env.Suite.Nature.Questions[:n] {
		fmt.Println("Q:", q.Text)

		cot := ask(bench.MethodCoT, q).Answer
		rag := ask(bench.MethodRAG, q).Answer
		res := ask(bench.MethodOurs, q)

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
