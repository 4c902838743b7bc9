package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/world"
)

// cachedEnv builds a small environment with the serving cache enabled —
// the configuration pgakvd runs with by default.
func cachedEnv(t testing.TB) *bench.Env {
	t.Helper()
	cfg := bench.QuickEnvConfig()
	cfg.Data.SimpleN = 10
	cfg.Data.QALDN = 6
	cfg.Data.NatureN = 4
	cfg.Cache = serve.CacheConfig{Size: 256, TTL: time.Hour}
	return newEnv(t, cfg)
}

// TestAnswerCacheHitHeaderAndLatency is the serving acceptance criterion:
// a repeated /v1/answer query returns X-Cache: hit and is at least 10x
// faster than the cold run.
func TestAnswerCacheHitHeaderAndLatency(t *testing.T) {
	env := cachedEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	person := env.World.Entities[env.World.OfKind(world.KindPerson)[0]]
	req := answerRequest{
		queryItem: queryItem{Question: "Where was " + person.Name + " born?"},
		Method:    "ours",
	}

	coldStart := time.Now()
	rec := postJSON(t, h, "/v1/answer", req)
	cold := time.Since(coldStart)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("cold X-Cache = %q, want miss", got)
	}
	coldOut := decode[answerResponse](t, rec)

	// Sample several warm requests and take the fastest to keep scheduler
	// noise out of the ratio.
	warm := time.Hour
	var warmOut answerResponse
	for i := 0; i < 5; i++ {
		warmStart := time.Now()
		rec = postJSON(t, h, "/v1/answer", req)
		if d := time.Since(warmStart); d < warm {
			warm = d
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("warm: status %d: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Cache"); got != "hit" {
			t.Fatalf("warm X-Cache = %q, want hit", got)
		}
		warmOut = decode[answerResponse](t, rec)
	}
	if warmOut.Answer != coldOut.Answer {
		t.Fatalf("cached answer %q != cold answer %q", warmOut.Answer, coldOut.Answer)
	}
	if warm*10 > cold {
		t.Errorf("warm %v not >=10x faster than cold %v", warm, cold)
	}
}

// TestMetricsEndpoint: /v1/metrics reports per-method counts, latency and
// cache stats after traffic.
func TestMetricsEndpoint(t *testing.T) {
	env := cachedEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	city := env.World.Entities[env.World.OfKind(world.KindCity)[0]]
	req := answerRequest{
		queryItem: queryItem{Question: "What is the population of " + city.Name + "?"},
		Method:    "cot",
	}
	for i := 0; i < 3; i++ {
		if rec := postJSON(t, h, "/v1/answer", req); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d: %s", rec.Code, rec.Body.String())
	}
	var out metricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.CacheEnabled {
		t.Fatal("cache_enabled should be true")
	}
	if out.Cache.Hits < 2 {
		t.Errorf("cache stats %+v, want >= 2 hits", out.Cache)
	}
	var cot *serve.MethodSnapshot
	for i := range out.Methods {
		if out.Methods[i].Method == "cot" {
			cot = &out.Methods[i]
		}
	}
	if cot == nil {
		t.Fatalf("no cot metrics in %+v", out.Methods)
	}
	if cot.Count < 3 || cot.CacheHits < 2 {
		t.Errorf("cot snapshot %+v", cot)
	}
	if cot.LLMCalls < 1 {
		t.Errorf("cot should have real LLM cost from the cold run: %+v", cot)
	}
	if len(cot.Latency.Buckets) == 0 {
		t.Errorf("cot latency snapshot empty: %+v", cot.Latency)
	}
}

// TestMetricsEndpointEmpty: a fresh server serves an empty-but-valid
// metrics document.
func TestMetricsEndpointEmpty(t *testing.T) {
	cfg := bench.QuickEnvConfig()
	cfg.Data.SimpleN = 2
	cfg.Data.QALDN = 2
	cfg.Data.NatureN = 2
	env, err := bench.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := testServer(t, env, testConfig(time.Second)).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out metricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Methods == nil || len(out.Methods) != 0 {
		t.Errorf("methods = %v, want empty list", out.Methods)
	}
	if out.CacheEnabled {
		t.Error("cache should be off in a default quick env")
	}
}

// TestAnswerNoCacheHeaderWhenDisabled: with caching off the X-Cache header
// must be absent entirely.
func TestAnswerNoCacheHeaderWhenDisabled(t *testing.T) {
	h := testHandler(t) // shared env: cache off
	env := serverEnv(t)
	person := env.World.Entities[env.World.OfKind(world.KindPerson)[2]]
	rec := postJSON(t, h, "/v1/answer", answerRequest{
		queryItem: queryItem{Question: "Where was " + person.Name + " born?"},
		Method:    "io",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "" {
		t.Errorf("X-Cache = %q, want unset when caching is disabled", got)
	}
}

// TestMetricsReportIncrementalRevalidation: /v1/metrics counts under
// cache.revalidated_incremental the revalidations whose searches ran only
// on the rows added since the view the entry's run searched or its last
// replay. A question re-asked after an unrelated ingest is revalidated
// incrementally — its fill carries the searched view's token — and again
// after a second ingest and after a compaction, which leaves the rows
// where they were.
func TestMetricsReportIncrementalRevalidation(t *testing.T) {
	cfg := bench.QuickEnvConfig()
	cfg.Data.SimpleN, cfg.Data.QALDN, cfg.Data.NatureN = 2, 2, 2
	cfg.Cache = serve.CacheConfig{Size: 256}
	env, err := bench.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	person := env.World.Entities[env.World.OfKind(world.KindPerson)[0]]
	ask := answerRequest{queryItem: queryItem{Question: "Where was " + person.Name + " born?"}, Method: "ours"}
	post := func(path string, body any) {
		t.Helper()
		if rec := postJSON(t, h, path, body); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	ingest := func(i int) {
		post("/v1/ingest", ingestRequest{KG: "wikidata", Triples: []tripleWire{{Subject: fmt.Sprintf("Zorblax %d", i), Relation: "prime directive", Object: "Flumox"}}})
	}
	post("/v1/answer", ask)
	for i, step := range []struct {
		name                     string
		change                   func()
		revalidated, incremental int64
	}{
		{"first ingest", func() { ingest(1) }, 1, 1},
		{"second ingest", func() { ingest(2) }, 2, 2},
		{"compaction", func() { post("/v1/snapshot/compact", sourceRequest{KG: "wikidata"}) }, 3, 3},
	} {
		step.change()
		post("/v1/answer", ask)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		var out struct {
			Cache map[string]int64 `json:"cache"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if got := out.Cache; got["revalidated"] != step.revalidated || got["revalidated_incremental"] != step.incremental || got["stale_misses"] != 0 {
			t.Fatalf("step %d, %s: cache %v, want revalidated %d, revalidated_incremental %d", i, step.name, got, step.revalidated, step.incremental)
		}
	}
}
