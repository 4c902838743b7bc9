package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/racedetect"
	"repro/internal/trace"
	"repro/internal/world"
)

// TestIncludeTraceFillsAndHitsItsOwnEntry: a plain request fills a
// trace-less entry, so the same question with include_trace is a miss —
// never a hit without a trace — whose trace is the one an uncached server
// returns; afterwards both forms hit independently, and a hit's reply is
// the filling miss's except for elapsed_ms and the zeroed usage counters.
func TestIncludeTraceFillsAndHitsItsOwnEntry(t *testing.T) {
	env := cachedEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	person := env.World.Entities[env.World.OfKind(world.KindPerson)[2]]
	plain := answerRequest{queryItem: queryItem{Question: "Where was " + person.Name + " born?"}, Method: "ours"}
	traced := plain
	traced.IncludeTrace = true

	ask := func(req answerRequest, wantCache string) answerResponse {
		t.Helper()
		rec := postJSON(t, h, "/v1/answer", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Cache"); got != wantCache {
			t.Fatalf("include_trace=%v: X-Cache = %q, want %q", req.IncludeTrace, got, wantCache)
		}
		if body := rec.Body.String(); strings.Count(body, "\n") != 1 || strings.Contains(body, "\n ") {
			t.Fatalf("reply is not one compact line: %q", body)
		}
		return decode[answerResponse](t, rec)
	}
	plainMiss := ask(plain, "miss")
	if plainMiss.Trace != nil {
		t.Fatal("plain reply carries a trace")
	}
	tracedMiss := ask(traced, "miss")

	// The reference: the same question on a server without a cache.
	rec := postJSON(t, testHandler(t), "/v1/answer", traced)
	if rec.Code != http.StatusOK {
		t.Fatalf("uncached: status %d: %s", rec.Code, rec.Body.String())
	}
	want := decode[answerResponse](t, rec)
	sameTrace := func(label string, got *trace.Artefacts) {
		t.Helper()
		if got == nil || want.Trace == nil {
			t.Fatalf("%s: trace missing (got %v, uncached %v)", label, got, want.Trace)
		}
		if len(got.Gp) == 0 || len(got.Gf) == 0 {
			t.Fatalf("%s: empty graphs: %+v", label, got)
		}
		if !reflect.DeepEqual(got.Gp, want.Trace.Gp) || !reflect.DeepEqual(got.Gg, want.Trace.Gg) ||
			!reflect.DeepEqual(got.Gf, want.Trace.Gf) || !reflect.DeepEqual(got.Kept, want.Trace.Kept) {
			t.Fatalf("%s: trace differs from the uncached run's:\n got %+v\nwant %+v", label, got, want.Trace)
		}
		if len(got.Stages) != len(want.Trace.Stages) {
			t.Fatalf("%s: %d stages, uncached run has %d", label, len(got.Stages), len(want.Trace.Stages))
		}
		for i := range got.Stages {
			if got.Stages[i].Stage != want.Trace.Stages[i].Stage {
				t.Fatalf("%s: stage %d is %q, uncached run has %q", label, i, got.Stages[i].Stage, want.Trace.Stages[i].Stage)
			}
		}
	}
	sameTrace("include_trace miss", tracedMiss.Trace)

	// Both forms now hit, each its own entry.
	plainHit := ask(plain, "hit")
	tracedHit := ask(traced, "hit")
	if plainHit.Trace != nil {
		t.Fatal("plain hit carries a trace")
	}
	sameTrace("include_trace hit", tracedHit.Trace)

	// A hit is the miss that filled it, less the run's cost.
	for _, pair := range []struct {
		label     string
		miss, hit answerResponse
	}{{"plain", plainMiss, plainHit}, {"include_trace", tracedMiss, tracedHit}} {
		miss, hit := pair.miss, pair.hit
		if miss.LLMCalls == 0 || hit.LLMCalls != 0 || hit.PromptTokens != 0 || hit.CompletionTokens != 0 {
			t.Fatalf("%s: usage miss=%d hit=%d/%d/%d", pair.label, miss.LLMCalls, hit.LLMCalls, hit.PromptTokens, hit.CompletionTokens)
		}
		miss.LLMCalls, miss.PromptTokens, miss.CompletionTokens = 0, 0, 0
		miss.ElapsedMS, hit.ElapsedMS = 0, 0
		if !reflect.DeepEqual(miss, hit) {
			t.Fatalf("%s: hit differs from its miss beyond elapsed_ms and usage:\nmiss %+v\n hit %+v", pair.label, miss, hit)
		}
	}
}

// TestBatchAndSSEShareThePlainEntry: routes that cannot show a trace run
// under the same rule as a plain /v1/answer, so one question asked through
// /v1/batch, SSE and JSON is one run and one entry.
func TestBatchAndSSEShareThePlainEntry(t *testing.T) {
	env := cachedEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	person := env.World.Entities[env.World.OfKind(world.KindPerson)[3]]
	item := queryItem{Question: "Where was " + person.Name + " born?"}
	before := env.Node.Cache.Stats()

	rec := postJSON(t, h, "/v1/batch", batchRequest{Method: "ours", Queries: []queryItem{item}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	batch := decode[batchResponse](t, rec)
	if batch.Failed != 0 || len(batch.Items) != 1 || batch.Items[0].Result == nil || batch.Items[0].Result.Trace != nil {
		t.Fatalf("batch reply: %+v", batch)
	}

	rec = postJSON(t, h, "/v1/answer", answerRequest{queryItem: item, Method: "ours"})
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("plain /v1/answer after the batch: X-Cache = %q, want hit", got)
	}
	if got := decode[answerResponse](t, rec).Answer; got != batch.Items[0].Result.Answer {
		t.Fatalf("answer %q != batch item's %q", got, batch.Items[0].Result.Answer)
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	resp := postSSE(t, srv.URL, answerRequest{queryItem: item, Method: "ours"})
	events := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if len(events) != 1 || events[0].name != "answer" || !bytes.Contains(events[0].data, []byte(`"cached":true`)) {
		t.Fatalf("SSE after the batch: want one cached answer event, got %d events", len(events))
	}

	after := env.Node.Cache.Stats()
	if after.Size-before.Size != 1 || after.Misses-before.Misses != 1 || after.Hits-before.Hits != 2 {
		t.Fatalf("three routes, one question: entries +%d misses +%d hits +%d, want +1 +1 +2",
			after.Size-before.Size, after.Misses-before.Misses, after.Hits-before.Hits)
	}
}

// hitAllocs is what one warm /v1/answer costs in heap allocations through
// Server.Handler(), httptest's request and recorder included, measured
// with trace-less entries. Most of the 36 are httptest's request and
// recorder and the request body's decode (encoding/json). The hit path
// itself allocates the cache key, the
// request's context value and its Info, and the header values; the
// prompt_versions map is shared with the cache entry, not copied, and the
// reply is encoded into a pooled buffer without reflection.
const hitAllocs = 36

// TestAnswerHitAllocations pins the hit path's allocation count: a hit
// that starts copying a trace again — or any other per-hit garbage —
// fails here before it shows up as GC time on the rig.
func TestAnswerHitAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	hit := warmHit(t)
	if got := testing.AllocsPerRun(200, hit); got > hitAllocs {
		t.Fatalf("a cache hit allocates %.0f times, want at most %d", got, hitAllocs)
	}
}

// warmHit returns a closure that sends one plain /v1/answer request for
// an already-cached question through the real route table and fails
// unless the reply is an X-Cache hit.
func warmHit(tb testing.TB) func() {
	tb.Helper()
	env := cachedEnv(tb)
	h := testServer(tb, env, testConfig(30*time.Second)).Handler()
	person := env.World.Entities[env.World.OfKind(world.KindPerson)[1]]
	raw, err := json.Marshal(answerRequest{
		queryItem: queryItem{Question: "Where was " + person.Name + " born?"},
		Method:    "ours",
	})
	if err != nil {
		tb.Fatal(err)
	}
	send := func(want string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/answer", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || (want != "" && rec.Header().Get("X-Cache") != want) {
			tb.Fatalf("status %d, X-Cache %q (want %q): %s", rec.Code, rec.Header().Get("X-Cache"), want, rec.Body.String())
		}
	}
	send("") // fill (or find) the entry
	return func() { send("hit") }
}

// BenchmarkAnswerHit is a cache hit through Server.Handler(): route
// match, admission, body decode, scope + key, Cache.Get, the collector
// and the reply encode, for a local look at its time and bytes
// (TestAnswerHitAllocations pins its allocations):
//
//	go test -run=^$ -bench=AnswerHit -benchmem ./cmd/pgakvd
func BenchmarkAnswerHit(b *testing.B) {
	hit := warmHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}
