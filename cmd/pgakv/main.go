// Command pgakv answers a single question with any registered method —
// the full PG&AKV pipeline by default — and prints the intermediate
// artefacts (pseudo-graph, retrieved subjects, gold graph, fixed graph)
// when the method produces a trace. It is the quickest way to see a
// method's anatomy on a concrete input.
//
// Usage:
//
//	pgakv -q "Where was <person> born?" [-method ours|io|cot|sc|rag|tog] [-kg wikidata|freebase] [-model gpt4]
//	pgakv -list 5            # print 5 sample questions to try
//	pgakv -methods           # list the registered methods
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/answer"
	"repro/internal/bench"
	"repro/internal/failure"
	"repro/internal/kg"
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
	asJSON := flag.Bool("json", false, "emit the result as JSON instead of text")
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

	cfg := bench.DefaultEnvConfig()
	if quick {
		cfg = bench.QuickEnvConfig()
	}
	env, err := bench.NewEnv(cfg)
	if err != nil {
		return err
	}

	if list > 0 {
		for _, ds := range env.Suite.Datasets() {
			fmt.Printf("%s:\n", ds.Name)
			n := list
			if n > len(ds.Questions) {
				n = len(ds.Questions)
			}
			for _, q := range ds.Questions[:n] {
				fmt.Printf("  %s\n", q.Text)
			}
		}
		return nil
	}
	if question == "" {
		return fmt.Errorf("provide -q \"question\" (or -list N for samples, -methods for methods)")
	}

	src, err := kg.ParseSource(kgSource)
	if err != nil {
		return err
	}
	modelName := bench.ModelGPT35
	if model == "gpt4" || model == "gpt-4" {
		modelName = bench.ModelGPT4
	}
	ans, err := env.Answerer(method, modelName, src)
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
		return writeResultJSON(os.Stdout, question, modelName, src.String(), res)
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

// resultJSON is the machine-readable form of one run.
type resultJSON struct {
	Question         string     `json:"question"`
	Method           string     `json:"method"`
	Model            string     `json:"model"`
	KG               string     `json:"kg"`
	Answer           string     `json:"answer"`
	Gp               []string   `json:"gp,omitempty"`
	Kept             []keptJSON `json:"kept_subjects,omitempty"`
	Gg               []string   `json:"gg,omitempty"`
	Gf               []string   `json:"gf,omitempty"`
	LLMCalls         int        `json:"llm_calls"`
	PromptTokens     int        `json:"prompt_tokens"`
	CompletionTokens int        `json:"completion_tokens"`
	ElapsedMS        int64      `json:"elapsed_ms"`
	PseudoErr        string     `json:"pseudo_error,omitempty"`
}

type keptJSON struct {
	Subject    string  `json:"subject"`
	Confidence float64 `json:"confidence"`
	Triples    int     `json:"triples"`
}

func writeResultJSON(w io.Writer, question, model, src string, res answer.Result) error {
	doc := resultJSON{
		Question: question, Method: res.Method, Model: model, KG: src,
		Answer: res.Answer, LLMCalls: res.LLMCalls,
		PromptTokens: res.PromptTokens, CompletionTokens: res.CompletionTokens,
		ElapsedMS: res.Elapsed.Milliseconds(),
	}
	if tr := res.Trace; tr != nil {
		doc.Gp, doc.Gg, doc.Gf = tr.Gp.Strings(), tr.Gg.Strings(), tr.Gf.Strings()
		for _, sc := range tr.Kept {
			doc.Kept = append(doc.Kept, keptJSON{sc.Subject, sc.Confidence, sc.Triples})
		}
		if tr.PseudoErr != nil {
			doc.PseudoErr = tr.PseudoErr.Error()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
