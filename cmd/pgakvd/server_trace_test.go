package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/trace"
)

// tracedEnv builds a small environment with its own file-backed trace
// store.
func tracedEnv(t *testing.T) *bench.Env {
	t.Helper()
	store, err := trace.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.QuickEnvConfig()
	cfg.Data.SimpleN = 6
	cfg.Data.QALDN = 4
	cfg.Data.NatureN = 2
	cfg.Cache = serve.CacheConfig{Size: 256, TTL: time.Hour}
	cfg.Trace = store
	return newEnv(t, cfg)
}

func TestTraceRoutesEndToEnd(t *testing.T) {
	h := testServer(t, tracedEnv(t), testConfig(30*time.Second)).Handler()

	// Answer one question twice: the second run hits the cache, so the
	// store ends up with one miss record and one hit record for it.
	for i := 0; i < 2; i++ {
		rec := postJSON(t, h, "/v1/answer", map[string]any{"question": "who wrote Hamlet?", "method": "io"})
		if rec.Code != http.StatusOK {
			t.Fatalf("answer status %d: %s", rec.Code, rec.Body.String())
		}
	}

	// List: both records present, newest first, with the replay-critical
	// fields (epoch, cache_hit) serialized.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces?method=io", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("list status %d: %s", rec.Code, rec.Body.String())
	}
	list := decode[struct {
		Traces []map[string]any `json:"traces"`
		Stats  trace.StoreStats `json:"stats"`
	}](t, rec)
	if len(list.Traces) < 2 {
		t.Fatalf("want >=2 io traces, got %d", len(list.Traces))
	}
	newest, prior := list.Traces[0], list.Traces[1]
	if newest["cache_hit"] != true {
		t.Errorf("newest record should be the cache hit: %v", newest)
	}
	if prior["cache_hit"] != false {
		t.Errorf("prior record should be the miss: %v", prior)
	}
	for _, rec := range []map[string]any{newest, prior} {
		if _, ok := rec["epoch"]; !ok {
			t.Errorf("epoch missing from summary: %v", rec)
		}
		if rec["method"] != "io" || rec["question"] != "who wrote Hamlet?" {
			t.Errorf("identity wrong: %v", rec)
		}
	}
	if list.Stats.Records < 2 || list.Stats.Path == "" {
		t.Errorf("store stats not surfaced: %+v", list.Stats)
	}

	// Fetch the full record by id.
	id, _ := newest["id"].(string)
	if id == "" {
		t.Fatalf("summary has no id: %v", newest)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("get status %d: %s", rec.Code, rec.Body.String())
	}
	full := decode[trace.Record](t, rec)
	if full.ID != id || full.Question != "who wrote Hamlet?" || !full.CacheHit {
		t.Errorf("full record wrong: %+v", full)
	}

	// Unknown id is a 404 with the standard error envelope.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces/t999999", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing id status %d, want 404", rec.Code)
	}

	// Metrics surfaces the store stats.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	metrics := decode[struct {
		Traces        trace.StoreStats `json:"traces"`
		TracesEnabled bool             `json:"traces_enabled"`
	}](t, rec)
	if !metrics.TracesEnabled || metrics.Traces.Records < 2 {
		t.Errorf("metrics trace stats wrong: %+v", metrics)
	}
}

func TestTraceRoutesLimitValidation(t *testing.T) {
	h := testServer(t, tracedEnv(t), testConfig(30*time.Second)).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces?limit=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bogus limit status %d, want 400", rec.Code)
	}
}

func TestTraceRoutesDisabledWithoutStore(t *testing.T) {
	// The shared untraced environment: both routes refuse with 404 and a
	// hint, rather than returning empty lists that look like data.
	h := testHandler(t)
	for _, path := range []string{"/v1/traces", "/v1/traces/t000001"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, rec.Code)
		}
		if body := decode[errorResponse](t, rec); body.Error == "" {
			t.Errorf("%s: no error message", path)
		}
	}
}
