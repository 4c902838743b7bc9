package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// embeddedPromptsBody is GET /v1/prompts over the embedded defaults: the
// listing, the tasks the slots give and the fingerprint every cached
// answer is scoped by. A change to the .prompt format must leave it as
// it is.
const embeddedPromptsBody = `{"fingerprint":"answer-graph@1,cot@1,direct-triples@1,io@1,pseudo-graph@1,score-relations@1,verify@1","prompts":[{"name":"answer-graph","version":1,"task":"graph-qa","description":"Fig. 5 answer-from-graph prompt (answer the problem from the graph, mark with { })","active":true,"source":"embedded"},{` +
	`"name":"answer-graph","version":2,"task":"graph-qa","description":"Candidate rewording of the Fig. 5 prompt (terser instructions, same markers) for A/B runs","candidate":true,"active":false,"source":"embedded"},{` +
	`"name":"cot","version":1,"task":"cot","description":"Chain-of-thought baseline prompt (reason first, then the marked answer)","active":true,"source":"embedded"},{` +
	`"name":"direct-triples","version":1,"task":"direct-triples","description":"Direct triple generation ablation (bare triples instead of Cypher)","active":true,"source":"embedded"},{` +
	`"name":"io","version":1,"task":"io","description":"Standard input-output baseline prompt with the paper's six in-context examples","active":true,"source":"embedded"},{` +
	`"name":"pseudo-graph","version":1,"task":"pseudo-graph","description":"Fig. 3 pseudo-graph generation prompt (knowledge planning, then a Cypher graph)","active":true,"source":"embedded"},{` +
	`"name":"score-relations","version":1,"task":"score-relations","description":"ToG relation-pruning prompt (score candidate relations for a question)","active":true,"source":"embedded"},{` +
	`"name":"verify","version":1,"task":"verify","description":"Fig. 4 verification prompt (fix the pseudo-graph against the gold graph)","active":true,"source":"embedded"}]}` + "\n"

func TestPromptsBody(t *testing.T) {
	rec := httptest.NewRecorder()
	testHandler(t).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/prompts", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Body.String(); got != embeddedPromptsBody {
		t.Fatalf("GET /v1/prompts body moved:\n got %s\nwant %s", got, embeddedPromptsBody)
	}
}
