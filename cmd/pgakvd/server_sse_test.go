package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/core/exec"
	"repro/internal/failure"
	"repro/internal/llm"
	"repro/internal/serve"
	"repro/internal/world"
)

// sseEnv builds a small cache-enabled environment for the streaming
// tests. The GPT-4 client is wrapped to stall LLM calls until the
// request context dies — the handle the disconnect test uses to catch a
// run mid-flight. GPT-3.5 stays fast for the happy-path tests.
func sseEnv(t *testing.T) *bench.Env {
	t.Helper()
	cfg := bench.QuickEnvConfig()
	cfg.Data.SimpleN = 10
	cfg.Data.QALDN = 6
	cfg.Data.NatureN = 4
	cfg.Cache = serve.CacheConfig{Size: 256, TTL: time.Hour}
	env := newEnv(t, cfg)
	// Injected before any GPT-4 answerer is built, so every GPT-4
	// pipeline routes its LLM calls through the stall.
	env.Clients[bench.ModelGPT4] = stalledClient{inner: env.Clients[bench.ModelGPT4]}
	return env
}

// stalledClient blocks every completion until the caller's context is
// cancelled, then reports the cancellation.
type stalledClient struct{ inner llm.Client }

func (c stalledClient) Name() string { return c.inner.Name() }

func (c stalledClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	<-ctx.Done()
	return llm.Response{}, ctx.Err()
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// readSSE parses events off a stream until EOF or maxEvents.
func readSSE(t *testing.T, r io.Reader, maxEvents int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				cur = sseEvent{}
				if len(events) == maxEvents {
					return events
				}
			}
		}
	}
	return events
}

// postSSE issues a streaming /v1/answer request against a live test
// server and returns the response for incremental reading.
func postSSE(t *testing.T, baseURL string, body answerRequest) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/answer", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSSEStreamsStagesInPipelineOrder is the streaming happy path: a
// fresh question streams one stage event per pipeline stage, in the
// pipeline's order, before the final answer event.
func TestSSEStreamsStagesInPipelineOrder(t *testing.T) {
	env := sseEnv(t)
	srv := httptest.NewServer(testServer(t, env, testConfig(30*time.Second)).Handler())
	defer srv.Close()

	person := env.World.Entities[env.World.OfKind(world.KindPerson)[1]]
	resp := postSSE(t, srv.URL, answerRequest{
		queryItem: queryItem{Question: "Where was " + person.Name + " born?"},
		Method:    "ours",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	events := readSSE(t, resp.Body, 0)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.name != "answer" {
		t.Fatalf("terminal event = %q (%s), want answer", last.name, last.data)
	}
	var stages []string
	for _, ev := range events[:len(events)-1] {
		if ev.name != "stage" {
			t.Fatalf("non-stage event %q before the answer", ev.name)
		}
		var sw exec.Span
		if err := json.Unmarshal(ev.data, &sw); err != nil {
			t.Fatalf("stage event %q: %v", ev.data, err)
		}
		stages = append(stages, sw.Stage)
	}
	want := []string{core.StagePseudo, core.StageRetrieve, core.StageVerify, core.StageAnswer}
	if len(stages) != len(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stage[%d] = %q, want %q (full: %v)", i, stages[i], want[i], stages)
		}
	}
	var ans answerResponse
	if err := json.Unmarshal(last.data, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Answer == "" || ans.Cached {
		t.Fatalf("answer event = %+v, want a fresh non-empty answer", ans)
	}
}

// TestSSECacheHitStreamsSingleAnswerEvent replays a question already in
// the answer cache: no stages run, so the stream is exactly one answer
// event, marked cached.
func TestSSECacheHitStreamsSingleAnswerEvent(t *testing.T) {
	env := sseEnv(t)
	srv := httptest.NewServer(testServer(t, env, testConfig(30*time.Second)).Handler())
	defer srv.Close()

	person := env.World.Entities[env.World.OfKind(world.KindPerson)[2]]
	req := answerRequest{
		queryItem: queryItem{Question: "Where was " + person.Name + " born?"},
		Method:    "ours",
	}
	// Warm the cache through the same streaming path.
	warm := postSSE(t, srv.URL, req)
	if _, err := io.Copy(io.Discard, warm.Body); err != nil {
		t.Fatal(err)
	}
	warm.Body.Close()

	resp := postSSE(t, srv.URL, req)
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 0)
	if len(events) != 1 || events[0].name != "answer" {
		var names []string
		for _, ev := range events {
			names = append(names, ev.name)
		}
		t.Fatalf("cache hit streamed %v, want exactly [answer]", names)
	}
	var ans answerResponse
	if err := json.Unmarshal(events[0].data, &ans); err != nil {
		t.Fatal(err)
	}
	if !ans.Cached {
		t.Fatalf("answer event = %+v, want cached=true", ans)
	}
}

// TestSSEDisconnectCancelsPipeline is the cancellation path: the client
// drops the stream while the first stage is still blocked on the LLM,
// and the in-flight run must die with it — observed as a "canceled"
// error landing in the method's serving metrics.
func TestSSEDisconnectCancelsPipeline(t *testing.T) {
	env := sseEnv(t)
	srv := httptest.NewServer(testServer(t, env, testConfig(30*time.Second)).Handler())
	defer srv.Close()

	canceledCount := func() int64 {
		var n int64
		for _, m := range env.Metrics.Snapshot() {
			n += m.ErrorsByClass[failure.Canceled.String()]
		}
		return n
	}
	before := canceledCount()

	person := env.World.Entities[env.World.OfKind(world.KindPerson)[3]]
	resp := postSSE(t, srv.URL, answerRequest{
		queryItem: queryItem{Question: "Where was " + person.Name + " born?"},
		Method:    "ours",
		Model:     "gpt4", // the stalled client: the run blocks until cancelled
	})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// Headers are flushed before the run starts, so the server is now
	// blocked inside the pipeline's first LLM call. Hang up mid-stream.
	time.Sleep(50 * time.Millisecond)
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for canceledCount() == before {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never surfaced as a canceled error in metrics")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSingleflightFollowerKeepsItsOwnDeadline: the request deadline is
// armed below the cache, above singleflight, so a follower that joins a
// leader's run with a shorter timeout_ms still gives up at its own
// deadline — without starting a run, and without ending the leader's.
func TestSingleflightFollowerKeepsItsOwnDeadline(t *testing.T) {
	env := sseEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	req := answerRequest{queryItem: queryItem{Question: "Where was FollowerDeadline born?"}, Method: "ours", Model: "gpt4"}
	before := env.Node.DedupStats()

	// send serves one request on its own goroutine.
	send := func(req answerRequest, ctx context.Context) <-chan *httptest.ResponseRecorder {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/answer", bytes.NewReader(raw)).WithContext(ctx))
			done <- rec
		}()
		return done
	}

	// The leader stalls in its first LLM call until its client leaves.
	leaderCtx, leave := context.WithCancel(context.Background())
	defer leave()
	leader := send(req, leaderCtx)
	for deadline := time.Now().Add(5 * time.Second); env.Node.DedupStats().Runs == before.Runs; {
		if time.Now().After(deadline) {
			t.Fatal("the leader's run never started")
		}
		time.Sleep(time.Millisecond)
	}

	follower := req
	follower.TimeoutMS = 50
	start := time.Now()
	followed := send(follower, context.Background())
	var rec *httptest.ResponseRecorder
	select {
	case rec = <-followed:
	case <-time.After(5 * time.Second):
		t.Fatal("the follower waited past its deadline")
	}
	if waited := time.Since(start); rec.Code != http.StatusGatewayTimeout || waited < 50*time.Millisecond {
		t.Fatalf("follower: status %d after %v, want 504 after about 50ms: %s", rec.Code, waited, rec.Body.String())
	}
	if out := decode[errorResponse](t, rec); out.Class != failure.Deadline {
		t.Fatalf("follower: class %q, want deadline", out.Class)
	}
	if got := env.Node.DedupStats().Runs - before.Runs; got != 1 {
		t.Fatalf("%d runs started, want the leader's alone", got)
	}
	select {
	case rec := <-leader:
		t.Fatalf("the leader ended with the follower: status %d", rec.Code)
	default:
	}

	leave()
	if rec := <-leader; rec.Code != failure.Canceled.Status() {
		t.Fatalf("leader: status %d after its client left, want %d", rec.Code, failure.Canceled.Status())
	}
}
