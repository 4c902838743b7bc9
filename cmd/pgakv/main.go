// Command pgakv answers a single question with any registered method —
// the full PG&AKV pipeline by default — and prints the intermediate
// artefacts (pseudo-graph, retrieved subjects, gold graph, fixed graph)
// when the method produces a trace. It is the quickest way to see a
// method's anatomy on a concrete input.
//
// Usage:
//
//	pgakv -q "Where was <person> born?" [-method ours|io|cot|sc|rag|tog] [-kg wikidata|freebase] [-model gpt4]
//	pgakv -q "..." -json     # the run's trace record, as GET /v1/traces/<id> serves one
//	pgakv -list 5            # print 5 sample questions to try
//	pgakv -methods           # list the registered methods
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/answer"
	"repro/internal/datasets"
	"repro/internal/failure"
	"repro/internal/kg"
	"repro/internal/node"
	"repro/internal/trace"
	"repro/internal/world"
)

func main() {
	question := flag.String("q", "", "question to answer")
	method := flag.String("method", "ours", "method from the answer registry (see -methods)")
	kgSource := flag.String("kg", "wikidata", "KG source: wikidata|freebase")
	model := flag.String("model", "gpt3.5", "model grade: gpt3.5|gpt4")
	anchor := flag.String("anchor", "", "gold topic entity for anchor-based methods (tog)")
	list := flag.Int("list", 0, "print N sample questions from each dataset and exit")
	methods := flag.Bool("methods", false, "list registered methods and exit")
	quick := flag.Bool("quick", true, "use the small environment (fast startup)")
	asJSON := flag.Bool("json", false, "print the run's trace record (one JSON line) instead of text")
	timeout := flag.Duration("timeout", 0, "per-question deadline (0 = none)")
	flag.Parse()

	if err := run(*question, *method, *kgSource, *model, *anchor, *list, *methods, *quick, *asJSON, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "pgakv:", err)
		os.Exit(1)
	}
}

func run(question, method, kgSource, model, anchor string, list int, methods, quick, asJSON bool, timeout time.Duration) error {
	if methods {
		for _, name := range answer.Names() {
			desc, _ := answer.Describe(name)
			fmt.Printf("%-8s %s\n", name, desc)
		}
		return nil
	}

	if question == "" && list <= 0 {
		return fmt.Errorf("provide -q \"question\" (or -list N for samples, -methods for methods)")
	}
	modelName, err := node.ResolveModel(model)
	if err != nil {
		return err
	}
	n, err := node.New(node.ConfigFor(quick))
	if err != nil {
		return err
	}
	defer n.Close()
	if list > 0 {
		return printSamples(n.World, list, quick)
	}

	src, err := kg.ParseSource(kgSource)
	if err != nil {
		return err
	}
	ans, err := n.Answerer(method, modelName, src)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	q := answer.Query{Text: question, Method: method, Model: modelName}
	if anchor != "" {
		q.Anchors = []string{anchor}
	}
	res, err := ans.Answer(ctx, q)
	if err != nil {
		return fmt.Errorf("%s (class %s)", err, failure.Of(err))
	}
	if asJSON {
		// The run's trace record: the object GET /v1/traces/<id> serves.
		line, err := trace.Encode(trace.Build(q, res, nil, trace.Meta{KG: src.String()}))
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(line)
		return err
	}

	fmt.Printf("question: %s\nmethod: %s   model: %s   kg: %s\n\n", question, res.Method, modelName, src)
	if tr := res.Trace; tr != nil {
		fmt.Println("--- step 1: pseudo-graph (Gp) ---")
		if tr.PseudoErr != nil {
			fmt.Printf("cypher decode failed: %v\n", tr.PseudoErr)
		}
		fmt.Println(tr.Gp)
		fmt.Println("\n--- steps 2-3: pruned subjects ---")
		for _, sc := range tr.Kept {
			fmt.Printf("  %-30s confidence=%.3f triples=%d\n", sc.Subject, sc.Confidence, sc.Triples)
		}
		if tr.Gg != nil {
			fmt.Println("\n--- gold graph (Gg) ---")
			fmt.Println(tr.Gg)
		}
		if tr.Gf != nil {
			fmt.Println("\n--- step 4: fixed graph (Gf) ---")
			fmt.Println(tr.Gf)
		}
		fmt.Println("\n--- answer ---")
	} else {
		fmt.Println("--- answer ---")
	}
	fmt.Println(res.Answer)
	fmt.Printf("\n(LLM calls: %d, tokens: %d prompt / %d completion, elapsed: %v)\n",
		res.LLMCalls, res.PromptTokens, res.CompletionTokens, res.Elapsed.Round(time.Microsecond))
	return nil
}

// printSamples prints the first n questions of each dataset, built over
// the node's world so that every one resolves against it.
func printSamples(w *world.World, n int, quick bool) error {
	cfg := datasets.DefaultConfig()
	if quick {
		cfg = datasets.QuickConfig()
	}
	suite, err := datasets.Build(w, cfg)
	if err != nil {
		return err
	}
	for _, ds := range suite.Datasets() {
		fmt.Printf("%s:\n", ds.Name)
		for _, q := range ds.Questions[:min(n, len(ds.Questions))] {
			fmt.Printf("  %s\n", q.Text)
		}
	}
	return nil
}
