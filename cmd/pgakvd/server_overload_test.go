package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/llm"
	"repro/internal/loadgen"
	"repro/internal/racedetect"
	"repro/internal/world"
)

var (
	overloadEnvOnce sync.Once
	overloadEnvVal  *bench.Env
	overloadEnvErr  error
)

// overloadEnv builds a small cache-less environment: every accepted
// request is a real pipeline run, so overload is genuine work, not
// cache hits. The GPT-4 client gets a per-call delay so service time
// dominates client-side overhead — without it the quick-scale pipeline
// finishes faster than a closed loop can pile up arrivals and the
// admission gate never saturates.
func overloadEnv(t *testing.T) *bench.Env {
	t.Helper()
	overloadEnvOnce.Do(func() {
		cfg := bench.QuickEnvConfig()
		cfg.Data.SimpleN = 10
		cfg.Data.QALDN = 6
		cfg.Data.NatureN = 4
		overloadEnvVal, overloadEnvErr = bench.NewEnv(cfg)
		if overloadEnvErr == nil {
			overloadEnvVal.Clients[bench.ModelGPT4] = delayedClient{
				inner: overloadEnvVal.Clients[bench.ModelGPT4],
				delay: 2 * time.Millisecond,
			}
		}
	})
	if overloadEnvErr != nil {
		t.Fatal(overloadEnvErr)
	}
	return overloadEnvVal
}

// delayedClient adds a fixed context-respecting latency to every LLM
// call.
type delayedClient struct {
	inner llm.Client
	delay time.Duration
}

func (c delayedClient) Name() string { return c.inner.Name() }

func (c delayedClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	select {
	case <-time.After(c.delay):
	case <-ctx.Done():
		return llm.Response{}, ctx.Err()
	}
	return c.inner.Complete(ctx, req)
}

// overloadQuestions samples distinct person questions so the burst is
// not a single query deduplicated away.
func overloadQuestions(env *bench.Env, n int) []string {
	people := env.World.OfKind(world.KindPerson)
	if n > len(people) {
		n = len(people)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = "Where was " + env.World.Entities[people[i]].Name + " born?"
	}
	return out
}

// TestOverloadShedsFastAndServesTheRest is the overload chaos test: a
// closed-loop burst of 16 clients hammers a server whose admission gate
// allows 2 in flight plus a queue of 2. The contract under overload:
// every refusal is a 429 carrying Retry-After (loadgen counts a missing
// header as an error), every admitted request completes, the controller's
// books balance exactly, and shedding is far cheaper than service.
func TestOverloadShedsFastAndServesTheRest(t *testing.T) {
	env := overloadEnv(t)
	cfg := testConfig(30 * time.Second)
	cfg.Admission.MaxInFlight = 2
	cfg.Admission.MaxQueue = 2
	server := testServer(t, env, cfg)
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	res, err := loadgen.Run(t.Context(), loadgen.Config{
		BaseURL:   srv.URL,
		Method:    "ours",
		Model:     "gpt4", // the delayed client: service time dominates
		Questions: overloadQuestions(env, 32),
		Clients:   16,
		Requests:  240,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Errors != 0 {
		t.Fatalf("%d requests were neither served nor cleanly refused (429 without Retry-After, transport error, or 5xx)", res.Errors)
	}
	if res.Issued != 240 {
		t.Fatalf("issued %d, want 240", res.Issued)
	}
	if res.OK == 0 || res.Rejected == 0 {
		t.Fatalf("burst did not exercise both outcomes: ok=%d rejected=%d", res.OK, res.Rejected)
	}
	if res.OK+res.Rejected != res.Issued {
		t.Fatalf("ok %d + rejected %d != issued %d", res.OK, res.Rejected, res.Issued)
	}

	// The controller's books must balance with the client's view exactly:
	// no rate limiter is configured, so every 429 is a shed.
	st := server.admit.Stats()
	if st.Shed != res.Rejected {
		t.Fatalf("controller shed %d, clients saw %d rejections", st.Shed, res.Rejected)
	}
	if st.Admitted != res.OK {
		t.Fatalf("controller admitted %d, clients saw %d successes", st.Admitted, res.OK)
	}
	if st.Limited != 0 {
		t.Fatalf("limited = %d with no rate limiter", st.Limited)
	}
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("gauges not drained: %+v", st)
	}

	// Shedding must be far cheaper than service: a refused request does
	// no pipeline work. The typical refusal must sit well below the
	// typical service; the tail contract — even the shed p99 below the
	// accepted p50 — only holds in a normal build, because race-detector
	// instrumentation inflates the client-side overhead that dominates
	// sub-millisecond refusals.
	if res.Refused.P50MS >= res.Accepted.P50MS {
		t.Fatalf("shed p50 %.2fms >= accepted p50 %.2fms — refusals are not fast",
			res.Refused.P50MS, res.Accepted.P50MS)
	}
	if !racedetect.Enabled && res.Refused.P99MS >= res.Accepted.P50MS {
		t.Fatalf("shed p99 %.2fms >= accepted p50 %.2fms — refusals are not fast",
			res.Refused.P99MS, res.Accepted.P50MS)
	}
	t.Logf("ok=%d rejected=%d accepted p50=%.2fms p99=%.2fms refused p99=%.2fms",
		res.OK, res.Rejected, res.Accepted.P50MS, res.Accepted.P99MS, res.Refused.P99MS)
}

// TestRateLimitedRequestsNeverReachTheLLM is the acceptance criterion
// that refused traffic costs zero model work: with a burst-1 limiter,
// a stream of rate-limited requests leaves the environment's LLM call
// counter exactly where the one admitted request put it.
func TestRateLimitedRequestsNeverReachTheLLM(t *testing.T) {
	env := overloadEnv(t)
	cfg := testConfig(30 * time.Second)
	// One request per 1000s: the first spends the burst, everything
	// after is refused.
	cfg.Admission.Limiter.Rate = 0.001
	cfg.Admission.Limiter.Burst = 1
	server := testServer(t, env, cfg)
	h := server.Handler()

	llmCalls := func() int64 {
		var n int64
		for _, m := range env.Metrics.Snapshot() {
			n += m.LLMCalls
		}
		return n
	}

	q := overloadQuestions(env, 8)
	body := answerRequest{queryItem: queryItem{Question: q[7]}, Method: "ours"}
	warm := postJSON(t, h, "/v1/answer", body)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", warm.Code, warm.Body.String())
	}
	after := llmCalls()
	if after == 0 {
		t.Fatal("warm request recorded no LLM calls")
	}

	for i := 0; i < 20; i++ {
		rec := postJSON(t, h, "/v1/answer", body)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429", i, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("request %d: 429 without Retry-After", i)
		}
		if got := decode[errorResponse](t, rec); got.Class != "rate-limited" {
			t.Fatalf("request %d: class %q, want rate-limited", i, got.Class)
		}
	}
	if got := llmCalls(); got != after {
		t.Fatalf("rate-limited traffic reached the LLM: calls went %d -> %d", after, got)
	}
	if st := server.admit.Stats(); st.Limited != 20 || st.Admitted != 1 {
		t.Fatalf("stats = %+v, want limited=20 admitted=1", st)
	}
}

// TestAdmissionWrapsAnswerRoutesOnly pins the route table's middleware
// order: with the in-flight gate saturated, /v1/answer and /v1/batch are
// refused with the fast 429 before their body is decoded (a malformed
// body would otherwise be a 400), while the routes outside admission
// still answer.
func TestAdmissionWrapsAnswerRoutesOnly(t *testing.T) {
	cfg := testConfig(30 * time.Second)
	cfg.Admission.MaxInFlight = 1
	cfg.Admission.MaxQueue = 0
	server := testServer(t, overloadEnv(t), cfg)
	h := server.Handler()
	release, err := server.admit.Admit(t.Context(), "slot-holder")
	if err != nil {
		t.Fatal(err)
	}

	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	for _, path := range []string{"/v1/answer", "/v1/batch"} {
		rec := post(path, "{not json")
		if rec.Code != http.StatusTooManyRequests {
			t.Errorf("%s under a saturated gate: status %d, want 429: %s", path, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s: 429 without Retry-After", path)
		}
		if got := decode[errorResponse](t, rec); got.Class != "shed" {
			t.Errorf("%s: class %q, want shed", path, got.Class)
		}
	}
	for _, path := range []string{"/healthz", "/v1/metrics"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s under a saturated gate: status %d, want 200", path, rec.Code)
		}
	}
	// Ingest is outside admission: it gets as far as its own validation.
	if rec := post("/v1/ingest", `{"kg": "wikidata", "triples": []}`); rec.Code != http.StatusBadRequest {
		t.Errorf("/v1/ingest under a saturated gate: status %d, want its own 400: %s", rec.Code, rec.Body.String())
	}

	release()
	for _, path := range []string{"/v1/answer", "/v1/batch"} {
		if rec := post(path, "{not json"); rec.Code != http.StatusBadRequest {
			t.Errorf("%s with a free slot: status %d, want the decoder's 400", path, rec.Code)
		}
	}
}
