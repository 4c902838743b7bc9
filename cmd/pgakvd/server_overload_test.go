package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/failure"
	"repro/internal/llm"
	"repro/internal/metrics"
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

// burst is one closed-loop run's client-side account: the two outcomes
// counted and their latencies (ms) kept apart, because shedding works
// only if a refusal is far cheaper than service and one folded
// distribution would hide that.
type burst struct {
	mu                sync.Mutex
	ok, rejected      int64
	accepted, refused []float64
}

// closedLoopBurst keeps `clients` workers each with one /v1/answer
// outstanding until `requests` have been issued, walking the question
// pool round-robin. Anything that is neither a 2xx nor a 429 carrying
// Retry-After fails the test.
func closedLoopBurst(t *testing.T, baseURL, method, model string, questions []string, clients, requests int) *burst {
	t.Helper()
	b := &burst{}
	// One kept-alive connection per worker: with the default two idle
	// connections per host most requests would dial, and dial time would
	// drown the sub-millisecond refusals being measured.
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer httpc.CloseIdleConnections()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1))
				if n > requests {
					return
				}
				body, _ := json.Marshal(answerRequest{queryItem: queryItem{Question: questions[n%len(questions)]}, Method: method, Model: model})
				start := time.Now()
				resp, err := httpc.Post(baseURL+"/v1/answer", "application/json", bytes.NewReader(body))
				ms := float64(time.Since(start)) / float64(time.Millisecond)
				if err != nil {
					t.Errorf("request %d: %v", n, err)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				b.mu.Lock()
				switch {
				case resp.StatusCode == http.StatusOK:
					b.ok++
					b.accepted = append(b.accepted, ms)
				case resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") != "":
					b.rejected++
					b.refused = append(b.refused, ms)
				default:
					t.Errorf("request %d: status %d (Retry-After %q): neither served nor cleanly refused",
						n, resp.StatusCode, resp.Header.Get("Retry-After"))
				}
				b.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Float64s(b.accepted)
	sort.Float64s(b.refused)
	return b
}

// TestOverloadShedsFastAndServesTheRest is the overload chaos test: a
// closed-loop burst of 16 clients hammers a server whose admission gate
// allows 2 in flight plus a queue of 2. The contract under overload:
// every refusal is a 429 carrying Retry-After, every admitted request
// completes, the controller's books balance exactly — in memory and as
// GET /v1/metrics reports them — and shedding is far cheaper than service.
func TestOverloadShedsFastAndServesTheRest(t *testing.T) {
	env := overloadEnv(t)
	cfg := testConfig(30 * time.Second)
	cfg.Admission.MaxInFlight = 2
	cfg.Admission.MaxQueue = 2
	server := testServer(t, env, cfg)
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	const issued = 240
	// gpt4 is the delayed client: service time dominates.
	res := closedLoopBurst(t, srv.URL, "ours", "gpt4", overloadQuestions(env, 32), 16, issued)
	if t.Failed() {
		t.FailNow()
	}
	if res.ok == 0 || res.rejected == 0 {
		t.Fatalf("burst did not exercise both outcomes: ok=%d rejected=%d", res.ok, res.rejected)
	}
	if res.ok+res.rejected != issued {
		t.Fatalf("ok %d + rejected %d != issued %d", res.ok, res.rejected, issued)
	}

	// The controller's books must balance with the client's view exactly:
	// no rate limiter is configured, so every 429 is a shed.
	st := server.admit.Stats()
	if st.Shed != res.rejected {
		t.Fatalf("controller shed %d, clients saw %d rejections", st.Shed, res.rejected)
	}
	if st.Admitted != res.ok {
		t.Fatalf("controller admitted %d, clients saw %d successes", st.Admitted, res.ok)
	}
	if st.Limited != 0 {
		t.Fatalf("limited = %d with no rate limiter", st.Limited)
	}
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("gauges not drained: %+v", st)
	}

	// The same books on the wire, under the key names operators read,
	// after a burst that really produced refusals.
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire struct {
		AdmissionEnabled bool                       `json:"admission_enabled"`
		Admission        map[string]json.RawMessage `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatalf("/v1/metrics: %v", err)
	}
	if !wire.AdmissionEnabled {
		t.Error("/v1/metrics: admission_enabled is false on a server with an in-flight gate")
	}
	for key, want := range map[string]int64{"admitted": res.ok, "shed": res.rejected, "limited": 0, "queue_depth": 0, "in_flight": 0} {
		var got int64
		if b, ok := wire.Admission[key]; !ok {
			t.Errorf("/v1/metrics: admission block has no %q", key)
		} else if err := json.Unmarshal(b, &got); err != nil || got != want {
			t.Errorf("/v1/metrics: admission.%s = %s, want %d", key, b, want)
		}
	}

	// Shedding must be far cheaper than service: a refused request does
	// no pipeline work. The typical refusal must sit well below the
	// typical service; the tail contract — even the shed p99 below the
	// accepted p50 — only holds in a normal build, because race-detector
	// instrumentation inflates the client-side overhead that dominates
	// sub-millisecond refusals.
	acceptedP50 := metrics.Percentile(res.accepted, 50)
	refusedP50, refusedP99 := metrics.Percentile(res.refused, 50), metrics.Percentile(res.refused, 99)
	if refusedP50 >= acceptedP50 {
		t.Fatalf("shed p50 %.2fms >= accepted p50 %.2fms — refusals are not fast", refusedP50, acceptedP50)
	}
	if !racedetect.Enabled && refusedP99 >= acceptedP50 {
		t.Fatalf("shed p99 %.2fms >= accepted p50 %.2fms — refusals are not fast", refusedP99, acceptedP50)
	}
	t.Logf("ok=%d rejected=%d accepted p50=%.2fms p99=%.2fms refused p99=%.2fms",
		res.ok, res.rejected, acceptedP50, metrics.Percentile(res.accepted, 99), refusedP99)
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
		if got := decode[errorResponse](t, rec); got.Class != failure.RateLimited {
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
		if got := decode[errorResponse](t, rec); got.Class != failure.Shed {
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
