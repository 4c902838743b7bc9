package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/failure"
	"repro/internal/world"
)

var (
	envOnce sync.Once
	envVal  *bench.Env
	envErr  error
)

// serverEnv builds one small environment for every handler test.
func serverEnv(t *testing.T) *bench.Env {
	t.Helper()
	envOnce.Do(func() {
		cfg := bench.QuickEnvConfig()
		cfg.Data.SimpleN = 10
		cfg.Data.QALDN = 6
		cfg.Data.NatureN = 4
		envVal, envErr = bench.NewEnv(cfg)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

// newEnv builds an environment the calling test owns: its cache,
// substrates and trace store start empty whatever ran before, so a test
// that counts misses, hits, epochs or records passes under -count and
// -shuffle. It is closed when the test ends.
func newEnv(t testing.TB, cfg bench.EnvConfig) *bench.Env {
	t.Helper()
	env, err := bench.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := env.Node.Close(); err != nil {
			t.Error(err)
		}
	})
	return env
}

// testConfig is the default server config with the given request deadline.
func testConfig(timeout time.Duration) Config {
	cfg, _ := parseFlags(nil)
	cfg.Timeout = timeout
	return cfg
}

// testServer fronts an environment's node with a server built from cfg.
func testServer(t testing.TB, env *bench.Env, cfg Config) *Server {
	t.Helper()
	srv, err := NewServer(env.Node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func testHandler(t *testing.T) http.Handler {
	return testServer(t, serverEnv(t), testConfig(30*time.Second)).Handler()
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var out T
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	h := testHandler(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := decode[map[string]string](t, rec); got["status"] != "ok" {
		t.Errorf("body %v", got)
	}
}

func TestMethodsListsRegistry(t *testing.T) {
	h := testHandler(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/methods", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Methods []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
		} `json:"methods"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range out.Methods {
		seen[m.Name] = true
		if m.Description == "" {
			t.Errorf("method %q has no description", m.Name)
		}
	}
	for _, want := range []string{"ours", "tog", "io", "cot", "sc", "rag"} {
		if !seen[want] {
			t.Errorf("methods missing %q (have %v)", want, seen)
		}
	}
}

// TestAnswerRoundTripAllMethods is the serving half of the acceptance
// criterion: every method answers a question through POST /v1/answer.
func TestAnswerRoundTripAllMethods(t *testing.T) {
	env := serverEnv(t)
	h := testHandler(t)
	person := env.World.Entities[env.World.OfKind(world.KindPerson)[0]]
	question := "Where was " + person.Name + " born?"

	for _, method := range []string{"ours", "ours-gp", "tog", "io", "cot", "sc", "rag"} {
		rec := postJSON(t, h, "/v1/answer", answerRequest{
			queryItem: queryItem{Question: question, Anchors: []string{person.Name}},
			Method:    method,
			Model:     "gpt4",
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", method, rec.Code, rec.Body.String())
		}
		out := decode[answerResponse](t, rec)
		if out.Answer == "" || out.Method != method || out.LLMCalls < 1 {
			t.Errorf("%s: bad response %+v", method, out)
		}
		if out.Model != bench.ModelGPT4 {
			t.Errorf("%s: model %q", method, out.Model)
		}
	}
}

func TestAnswerIncludesTraceOnRequest(t *testing.T) {
	env := serverEnv(t)
	h := testHandler(t)
	city := env.World.Entities[env.World.OfKind(world.KindCity)[0]]
	rec := postJSON(t, h, "/v1/answer", answerRequest{
		queryItem:    queryItem{Question: "What is the population of " + city.Name + "?"},
		Method:       "ours",
		IncludeTrace: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	out := decode[answerResponse](t, rec)
	if out.Trace == nil {
		t.Fatal("trace missing despite include_trace")
	}
}

func TestAnswerUnknownMethod(t *testing.T) {
	h := testHandler(t)
	rec := postJSON(t, h, "/v1/answer", answerRequest{
		queryItem: queryItem{Question: "q?"},
		Method:    "no-such-method",
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	out := decode[errorResponse](t, rec)
	if out.Class != failure.UnknownMethod {
		t.Errorf("class %q", out.Class)
	}
}

func TestAnswerBadInputs(t *testing.T) {
	h := testHandler(t)
	for name, tc := range map[string]answerRequest{
		"empty question": {Method: "io"},
		"bad model":      {queryItem: queryItem{Question: "q?"}, Model: "gpt-99"},
		"bad kg":         {queryItem: queryItem{Question: "q?"}, KG: "dbpedia"},
	} {
		rec := postJSON(t, h, "/v1/answer", tc)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body.String())
		}
	}
	// Malformed JSON body.
	req := httptest.NewRequest(http.MethodPost, "/v1/answer", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", rec.Code)
	}
}

func TestAnswerDeadline(t *testing.T) {
	// GPT-4 on the streaming environment is the stalled client: the run
	// blocks in its first LLM call until the request deadline fires, so a
	// small timeout must surface as a deadline failure however fast the
	// rest of the pipeline is.
	h := testServer(t, sseEnv(t), testConfig(30*time.Second)).Handler()
	rec := postJSON(t, h, "/v1/answer", answerRequest{
		queryItem: queryItem{Question: "q?"},
		Method:    "ours",
		Model:     "gpt4",
		TimeoutMS: 1,
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	out := decode[errorResponse](t, rec)
	if out.Class != failure.Deadline {
		t.Errorf("class %q", out.Class)
	}
}

func TestBatchRoundTripWithPartialFailure(t *testing.T) {
	env := serverEnv(t)
	h := testHandler(t)
	person := env.World.Entities[env.World.OfKind(world.KindPerson)[1]]
	rec := postJSON(t, h, "/v1/batch", batchRequest{
		Method:      "tog",
		Concurrency: 2,
		Queries: []queryItem{
			{Question: "Where was " + person.Name + " born?", Anchors: []string{person.Name}},
			{Question: "Where was Nobody born?"}, // no anchors: tog rejects it
			{Question: "Where was " + person.Name + " educated?", Anchors: []string{person.Name}},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	out := decode[batchResponse](t, rec)
	if out.N != 3 || out.Failed != 1 {
		t.Fatalf("N=%d Failed=%d, want 3/1: %s", out.N, out.Failed, rec.Body.String())
	}
	for _, item := range out.Items {
		if item.Index == 1 {
			if item.Class != failure.InvalidQuery || item.Error == "" {
				t.Errorf("item 1 should fail invalid-query, got %+v", item)
			}
		} else if item.Result == nil || item.Result.Answer == "" {
			t.Errorf("item %d should succeed, got %+v", item.Index, item)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	h := testHandler(t)
	if rec := postJSON(t, h, "/v1/batch", batchRequest{Method: "io"}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", rec.Code)
	}
	big := batchRequest{Method: "io"}
	for i := 0; i < 300; i++ {
		big.Queries = append(big.Queries, queryItem{Question: "q?"})
	}
	if rec := postJSON(t, h, "/v1/batch", big); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", rec.Code)
	}
}
