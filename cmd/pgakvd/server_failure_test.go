package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core/exec"
	"repro/internal/failure"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/substrate"
	"repro/internal/trace"
)

// brokenClient fails every completion, as an LLM whose transport broke.
type brokenClient struct{ inner llm.Client }

func (c brokenClient) Name() string { return c.inner.Name() }

func (c brokenClient) Complete(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{}, errors.New("llm transport broke")
}

// failEnv builds a small durable environment persisting under dir, with
// promptDir as its prompt overlay and a GPT-4 client that always fails.
func failEnv(t *testing.T, dir, promptDir string) *bench.Env {
	t.Helper()
	reg := prompts.NewRegistry()
	if err := reg.LoadDir(promptDir); err != nil {
		t.Fatal(err)
	}
	cfg := bench.QuickEnvConfig()
	cfg.Data.SimpleN = 6
	cfg.Data.QALDN = 4
	cfg.Data.NatureN = 2
	cfg.Substrate = substrate.Config{
		ShardSize:  512,
		Durability: substrate.Durability{Dir: dir, Fsync: substrate.SyncAlways},
	}
	cfg.Prompts = reg
	env, err := bench.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Clients[bench.ModelGPT4] = brokenClient{inner: env.Clients[bench.ModelGPT4]}
	return env
}

func post(path, body string) *http.Request {
	return httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
}

func serve1(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestEveryClassReachesItsReply drives a real route into every class
// pgakvd replies with, and checks the reply: the class in the body, the
// class's status, and a Retry-After header exactly where the class sets
// one. The replication endpoints' own two classes are driven by
// internal/repl's TestErrorRepliesCarryTheirClass.
func TestEveryClassReachesItsReply(t *testing.T) {
	dir, promptDir := t.TempDir(), t.TempDir()
	env := failEnv(t, dir, promptDir)
	broken := testServer(t, env, testConfig(30*time.Second)).Handler()
	plain := testHandler(t)
	withConfig := func(edit func(*Config)) (*Server, http.Handler) {
		cfg := testConfig(30 * time.Second)
		edit(&cfg)
		s := testServer(t, overloadEnv(t), cfg)
		return s, s.Handler()
	}

	// In order: the storage case closes failEnv's WAL.
	cases := []struct {
		want  failure.Class
		reply func(t *testing.T) *httptest.ResponseRecorder
	}{
		{failure.Canceled, func(t *testing.T) *httptest.ResponseRecorder {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return serve1(plain, post("/v1/answer", `{"question": "Where was CancelProbe born?", "method": "io"}`).WithContext(ctx))
		}},
		{failure.Deadline, func(t *testing.T) *httptest.ResponseRecorder {
			h := testServer(t, sseEnv(t), testConfig(30*time.Second)).Handler()
			return serve1(h, post("/v1/answer", `{"question": "q?", "model": "gpt4", "timeout_ms": 1}`))
		}},
		{failure.UnknownMethod, func(t *testing.T) *httptest.ResponseRecorder {
			return serve1(plain, post("/v1/answer", `{"question": "q?", "method": "nope"}`))
		}},
		{failure.InvalidQuery, func(t *testing.T) *httptest.ResponseRecorder {
			return serve1(plain, post("/v1/answer", `{"question": "q?", "method": "tog"}`))
		}},
		{failure.Budget, func(t *testing.T) *httptest.ResponseRecorder {
			return serve1(plain, post("/v1/answer", `{"question": "Where was BudgetProbe born?", "token_budget": 1}`))
		}},
		{failure.Upstream, func(t *testing.T) *httptest.ResponseRecorder {
			return serve1(broken, post("/v1/answer", `{"question": "q?", "method": "io", "model": "gpt4"}`))
		}},
		{failure.Unsupported, func(t *testing.T) *httptest.ResponseRecorder {
			return serve1(plain, post("/v1/snapshot/checkpoint", ``))
		}},
		{failure.Shed, func(t *testing.T) *httptest.ResponseRecorder {
			s, h := withConfig(func(c *Config) { c.Admission.MaxInFlight, c.Admission.MaxQueue = 1, 0 })
			release, err := s.admit.Admit(t.Context(), "slot-holder")
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			return serve1(h, post("/v1/answer", `{"question": "q?"}`))
		}},
		{failure.RateLimited, func(t *testing.T) *httptest.ResponseRecorder {
			_, h := withConfig(func(c *Config) { c.Admission.Limiter.Rate, c.Admission.Limiter.Burst = 0.001, 1 })
			serve1(h, post("/v1/answer", `{not json`)) // spends the burst
			return serve1(h, post("/v1/answer", `{not json`))
		}},
		{failure.TooLarge, func(t *testing.T) *httptest.ResponseRecorder {
			_, h := withConfig(func(c *Config) { c.MaxBody = 16 })
			return serve1(h, post("/v1/answer", `{"question": "a question longer than the cap"}`))
		}},
		{failure.Replica, func(t *testing.T) *httptest.ResponseRecorder {
			// A replica's front door, without the appliers that would
			// stream from the primary.
			cfg := testConfig(30 * time.Second)
			cfg.ReplicaOf = "http://primary.invalid:8080"
			rec := serve1((&Server{node: serverEnv(t).Node, cfg: cfg}).Handler(), post("/v1/ingest", `{}`))
			if loc := rec.Header().Get("Location"); loc != cfg.ReplicaOf+"/v1/ingest" {
				t.Errorf("replica redirect Location %q", loc)
			}
			return rec
		}},
		{failure.NotFound, func(t *testing.T) *httptest.ResponseRecorder {
			return serve1(plain, httptest.NewRequest(http.MethodGet, "/v1/traces", nil))
		}},
		{failure.InvalidPrompts, func(t *testing.T) *httptest.ResponseRecorder {
			if err := os.WriteFile(filepath.Join(promptDir, "io.v2.prompt"), []byte("no frontmatter"), 0o644); err != nil {
				t.Fatal(err)
			}
			return serve1(broken, post("/v1/prompts/reload", ``))
		}},
		{failure.Conflict, func(t *testing.T) *httptest.ResponseRecorder {
			// Checkpoints racing each other: one is refused while another
			// writes.
			for range 100 {
				recs := make([]*httptest.ResponseRecorder, 4)
				var wg sync.WaitGroup
				for i := range recs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						recs[i] = serve1(broken, post("/v1/snapshot/checkpoint", ``))
					}()
				}
				wg.Wait()
				for _, rec := range recs {
					if rec.Code != http.StatusOK {
						return rec
					}
				}
			}
			t.Fatal("100 rounds of four concurrent checkpoints never overlapped")
			return nil
		}},
		{failure.Storage, func(t *testing.T) *httptest.ResponseRecorder {
			if err := env.Close(); err != nil {
				t.Fatal(err)
			}
			return serve1(broken, post("/v1/ingest", `{"triples": [{"subject": "Zorblax", "relation": "homeworld", "object": "Kepler-42b"}]}`))
		}},
	}
	covered := map[failure.Class]bool{failure.Truncated: true, failure.Unreachable: true}
	for _, tc := range cases {
		covered[tc.want] = true
		rec := tc.reply(t)
		got := decode[errorResponse](t, rec)
		if rec.Code != tc.want.Status() || got.Class != tc.want || got.Error == "" {
			t.Errorf("%s: status %d, class %q (%s); want status %d", tc.want, rec.Code, got.Class, got.Error, tc.want.Status())
		}
		if hasRetryAfter := rec.Header().Get("Retry-After") != ""; hasRetryAfter != tc.want.RetryAfter() {
			t.Errorf("%s: Retry-After set %v, want %v", tc.want, hasRetryAfter, tc.want.RetryAfter())
		}
	}
	for c := failure.None + 1; c < failure.NumClasses; c++ {
		if !covered[c] {
			t.Errorf("no route is driven into class %s", c)
		}
	}
}

// agreeEnv builds a small traced environment whose GPT-4 client stalls
// until the request's context ends, so a short timeout is a deadline.
func agreeEnv(t *testing.T) *bench.Env {
	t.Helper()
	store, err := trace.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.QuickEnvConfig()
	cfg.Data.SimpleN = 6
	cfg.Data.QALDN = 4
	cfg.Data.NatureN = 2
	cfg.Trace = store
	env, err := bench.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Clients[bench.ModelGPT4] = stalledClient{inner: env.Clients[bench.ModelGPT4]}
	return env
}

// TestFailureClassAgreesAcrossSurfaces: one failure reads as one class on
// every surface that names it: the JSON reply, the SSE error event, the
// /v1/batch item, the trace record's error_class and the failing stage
// span's err, in the reply's stages, the SSE stage events and the
// record. A budget needs token_budget, which /v1/batch does not take,
// and an invalid query fails before any stage runs, so those two
// surfaces are absent from one case each.
func TestFailureClassAgreesAcrossSurfaces(t *testing.T) {
	env := agreeEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	for _, tc := range []struct {
		want  failure.Class
		req   answerRequest
		batch bool
	}{
		{failure.Budget, answerRequest{queryItem: queryItem{Question: "Where was BudgetAgree born?"}, Method: "ours", TokenBudget: 1}, false},
		{failure.Deadline, answerRequest{queryItem: queryItem{Question: "Where was DeadlineAgree born?"}, Method: "ours", Model: "gpt4", TimeoutMS: 1}, true},
		{failure.InvalidQuery, answerRequest{queryItem: queryItem{Question: "Where was AnchorlessAgree born?"}, Method: "tog"}, true},
	} {
		t.Run(tc.want.String(), func(t *testing.T) {
			tc.req.IncludeTrace = true
			// says collects what each surface names the failure; spans
			// counts the failing spans among them.
			var says []string
			var classes []failure.Class
			spans := 0
			say := func(surface string, class failure.Class) {
				says, classes = append(says, surface), append(classes, class)
			}
			span := func(surface string, class failure.Class) {
				if class != failure.None {
					say(surface, class)
					spans++
				}
			}

			reply := decode[errorResponse](t, postJSON(t, h, "/v1/answer", tc.req))
			say("reply", reply.Class)
			for _, sp := range reply.Stages {
				span("reply stage "+sp.Stage, sp.Err)
			}

			raw, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/answer", bytes.NewReader(raw))
			req.Header.Set("Accept", "text/event-stream")
			for _, ev := range readSSE(t, serve1(h, req).Body, 0) {
				switch ev.name {
				case "stage":
					span("SSE stage event", unmarshal[exec.Span](t, ev.data).Err)
				case "error":
					say("SSE error event", unmarshal[errorResponse](t, ev.data).Class)
				}
			}

			if tc.batch {
				out := decode[batchResponse](t, postJSON(t, h, "/v1/batch", batchRequest{
					Method: tc.req.Method, Model: tc.req.Model, TimeoutMS: tc.req.TimeoutMS, Queries: []queryItem{tc.req.queryItem},
				}))
				if len(out.Items) != 1 {
					t.Fatalf("batch of one returned %d items", len(out.Items))
				}
				say("batch item", out.Items[0].Class)
			}

			recs, err := env.Cfg.Trace.List(trace.ListOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if r.Question != tc.req.Question {
					continue
				}
				say("trace record "+r.ID, r.ErrorClass)
				for _, sp := range r.Stages {
					span("trace record "+r.ID+" span "+sp.Stage, sp.Err)
				}
			}

			// The reply, the SSE event and their two trace records, plus
			// the batch item and its record.
			want := 4
			if tc.batch {
				want += 2
			}
			if len(says)-spans != want {
				t.Errorf("%d surfaces named the failure, want %d: %v", len(says)-spans, want, says)
			}
			if (spans > 0) != (tc.want != failure.InvalidQuery) {
				t.Errorf("%d failing spans seen; a run that reached a stage must show one", spans)
			}
			for i, class := range classes {
				if class != tc.want {
					t.Errorf("%s says %q, want %q", says[i], class, tc.want)
				}
			}
		})
	}
}

func unmarshal[T any](t *testing.T, data []byte) T {
	t.Helper()
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding %q: %v", data, err)
	}
	return out
}
