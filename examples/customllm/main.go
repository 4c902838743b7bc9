// Custom LLM client: every method only speaks prompt text through the
// llm.Client interface, so any backend can drive it. This example wires a
// hand-scripted client (llm.Scripted) into the PG&AKV method through the
// answer registry — the same mechanism you would use to replay transcripts
// from a real GPT endpoint — and wraps it in llm.Recorder to show the full
// prompt/completion transcript of one run.
//
//	go run ./examples/customllm
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/answer"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/vecstore"
)

func main() {
	// A hand-built KG: the paper's Great Lakes example.
	store := kg.NewStore(kg.SourceWikidata)
	store.AddAll([]kg.Triple{
		{Subject: "Lake Superior", Relation: "area", Object: "82350"},
		{Subject: "Lake Superior", Relation: "connects with", Object: "Keweenaw Waterway"},
		{Subject: "Lake Michigan", Relation: "area", Object: "57750"},
		{Subject: "Lake Huron", Relation: "area", Object: "59600"},
		{Subject: "Lake Ontario", Relation: "area", Object: "18529"},
		{Subject: "Lake Erie", Relation: "area", Object: "25700"},
	})
	store.Freeze()
	index := vecstore.Build(embed.NewEncoder(), store)

	// A scripted client playing the LLM's three roles. The pseudo-graph
	// hallucinates areas (82000, 58000, 23000 — the paper's Fig. 3 values);
	// the verifier trusts the gold graph; the answerer picks the max.
	scripted := llm.NewScripted().
		On(prompts.TaskPseudoGraph, "<step 2> {Knowledge Graph}:\n```\n"+
			"CREATE (superior:Lake {name: 'Lake Superior', area: 82000})\n"+
			"CREATE (michigan:Lake {name: 'Lake Michigan', area: 58000})\n"+
			"CREATE (huron:Lake {name: 'Lake Huron', area: 23000})\n"+
			"```").
		OnFunc(prompts.TaskVerify, func(prompt string) (string, error) {
			parts, err := prompts.ExtractVerifyParts(prompt)
			if err != nil {
				return "", err
			}
			gold, err := kg.ParseGraph(parts.GoldGraph)
			if err != nil {
				return "", err
			}
			return gold.String(), nil // trust the KG wholesale
		}).
		OnFunc(prompts.TaskGraphQA, func(prompt string) (string, error) {
			parts, err := prompts.ExtractGraphQAParts(prompt)
			if err != nil {
				return "", err
			}
			g, err := kg.ParseGraph(parts.Graph)
			if err != nil || g.Len() == 0 {
				return "I do not know {anything}.", nil
			}
			best, bestArea := "", ""
			for _, t := range g.Triples {
				if t.Relation == "area" && t.Object > bestArea {
					// String compare works here: all areas are 5-digit.
					best, bestArea = t.Subject, t.Object
				}
			}
			return fmt.Sprintf("Based on the [graph] above, the largest is {%s} with area %s.", best, bestArea), nil
		})

	recorder := llm.NewRecorder(scripted)
	ans, err := answer.New("ours", answer.Deps{Client: recorder, Store: store, Index: index})
	if err != nil {
		log.Fatal(err)
	}

	res, err := ans.Answer(context.Background(), answer.Query{Text: "Who has the largest area of the Great Lakes in the United States?"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("answer:", res.Answer)
	fmt.Println("\nGf (hallucinated areas corrected against the KG):")
	fmt.Println(res.Trace.Gf)

	fmt.Println("\ntranscript:")
	for i, ex := range recorder.Exchanges() {
		fmt.Printf("  call %d: task=%-12s prompt=%4d tokens, completion=%3d tokens\n",
			i+1, ex.Task, ex.Response.Usage.PromptTokens, ex.Response.Usage.CompletionTokens)
	}
}
