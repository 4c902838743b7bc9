// Quickstart: wire up the PG&AKV method from its parts — world, KG store,
// vector index, simulated LLM — build it through the answer registry and
// answer one question, printing every intermediate artefact of the run's
// trace (Gp, pruned subjects, Gg, Gf, answer).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/answer"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/vecstore"
	"repro/internal/world"
)

func main() {
	// 1. Generate a synthetic world (the Wikidata/Freebase substitute).
	cfg := world.DefaultConfig()
	cfg.People, cfg.Cities, cfg.Countries = 150, 60, 20
	cfg.Works, cfg.Companies, cfg.Universities = 100, 40, 25
	w, err := world.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(w.Stats())

	// 2. Render it as a Wikidata-flavoured KG and build the vector index.
	store := world.WikidataSchema().Render(w)
	index := vecstore.Build(embed.NewEncoder(), store)
	fmt.Println(store.Stats())

	// 3. A simulated GPT-3.5-grade model whose memory is a corrupted
	//    snapshot of the same world.
	model := llm.NewSim(w, llm.GPT35Params(), 42)

	// 4. The PG&AKV method ("ours") with the paper's settings.
	ans, err := answer.New("ours", answer.Deps{Client: model, Store: store, Index: index})
	if err != nil {
		log.Fatal(err)
	}

	// 5. Ask about a real entity — population is time-varying, so the
	//    verification step must pick the latest value.
	city := w.Entities[w.OfKind(world.KindCity)[3]]
	question := fmt.Sprintf("What is the population of %s?", city.Name)
	res, err := ans.Answer(context.Background(), answer.Query{Text: question})
	if err != nil {
		log.Fatal(err)
	}

	tr := res.Trace
	fmt.Println("\nQ:", question)
	fmt.Println("\npseudo-graph Gp (the model's possibly-hallucinated plan):")
	fmt.Println(tr.Gp)
	fmt.Println("\nsubjects kept by two-step pruning:")
	for _, sc := range tr.Kept {
		fmt.Printf("  %-30s confidence %.3f (%d retrieved triples)\n",
			sc.Subject, sc.Confidence, sc.Triples)
	}
	fmt.Println("\ngold graph Gg (KG evidence):")
	fmt.Println(tr.Gg)
	fmt.Println("\nfixed graph Gf (after LLM verification):")
	fmt.Println(tr.Gf)
	fmt.Println("\nanswer:", res.Answer)

	// Ground truth for comparison.
	cur, _ := w.CurrentFact(city.ID, world.RelPopulation)
	fmt.Println("ground truth:", cur.Literal)
}
