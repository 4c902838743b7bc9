package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/world"
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

// TestOneTraceAcrossEverySurface: a run's trace has one shape. An
// include_trace reply's trace is the artefacts of the record GET
// /v1/traces/<id> serves for it, and an SSE request's stage events are its
// record's stages, byte for byte.
func TestOneTraceAcrossEverySurface(t *testing.T) {
	env := tracedEnv(t)
	srv := httptest.NewServer(testServer(t, env, testConfig(30*time.Second)).Handler())
	defer srv.Close()
	h := srv.Config.Handler
	people := env.World.OfKind(world.KindPerson)

	// record returns the body GET /v1/traces/<id> serves for the newest
	// record of question.
	record := func(question string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces?method=ours", nil))
		list := decode[struct {
			Traces []struct{ ID, Question string } `json:"traces"`
		}](t, rec)
		for _, s := range list.Traces {
			if s.Question == question {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces/"+s.ID, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("GET /v1/traces/%s: status %d", s.ID, rec.Code)
				}
				return rec.Body.Bytes()
			}
		}
		t.Fatalf("no record of %q", question)
		return nil
	}

	question := "Where was " + env.World.Entities[people[5]].Name + " born?"
	rec := postJSON(t, h, "/v1/answer", answerRequest{queryItem: queryItem{Question: question}, Method: "ours", IncludeTrace: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	reply := decode[struct {
		Trace json.RawMessage `json:"trace"`
	}](t, rec)
	var stored trace.Record
	if err := json.Unmarshal(record(question), &stored); err != nil {
		t.Fatal(err)
	}
	if len(stored.Stages) == 0 || len(stored.Gp) == 0 || len(stored.Kept) == 0 {
		t.Fatalf("record without a trace: %+v", stored)
	}
	if want, _ := json.Marshal(stored.Artefacts); !bytes.Equal(reply.Trace, want) {
		t.Fatalf("reply trace differs from its record's artefacts:\n got %s\nwant %s", reply.Trace, want)
	}

	question = "Where was " + env.World.Entities[people[6]].Name + " born?"
	resp := postSSE(t, srv.URL, answerRequest{queryItem: queryItem{Question: question}, Method: "ours"})
	events := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	var spans []json.RawMessage
	for _, ev := range events {
		if ev.name == "stage" {
			spans = append(spans, ev.data)
		}
	}
	var fields struct {
		Stages []json.RawMessage `json:"stages"`
	}
	if err := json.Unmarshal(record(question), &fields); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || len(spans) != len(fields.Stages) {
		t.Fatalf("%d stage events, the record has %d stages", len(spans), len(fields.Stages))
	}
	for i := range spans {
		if !bytes.Equal(spans[i], fields.Stages[i]) {
			t.Fatalf("stage event %d differs from the record's span:\n got %s\nwant %s", i, spans[i], fields.Stages[i])
		}
	}
}

// TestTraceListEntriesAreRecords: every /v1/traces list entry is the
// record GET /v1/traces/<id> serves, byte for byte, with its artefacts
// dropped; the elapsed time is the record's elapsed_us.
func TestTraceListEntriesAreRecords(t *testing.T) {
	env := tracedEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	people := env.World.OfKind(world.KindPerson)
	for i, method := range []string{"ours", "io", "ours", "cot"} {
		question := "Where was " + env.World.Entities[people[i]].Name + " born?"
		if rec := postJSON(t, h, "/v1/answer", map[string]any{"question": question, "method": method}); rec.Code != http.StatusOK {
			t.Fatalf("answer status %d: %s", rec.Code, rec.Body.String())
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces", nil))
	list := decode[struct {
		Traces []json.RawMessage `json:"traces"`
	}](t, rec)
	if len(list.Traces) != 4 {
		t.Fatalf("listed %d records, want 4", len(list.Traces))
	}
	withArtefacts := 0
	for _, entry := range list.Traces {
		var listed trace.Record
		if err := json.Unmarshal(entry, &listed); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces/"+listed.ID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/traces/%s: status %d", listed.ID, rec.Code)
		}
		full := decode[trace.Record](t, rec)
		if len(full.Stages) > 0 {
			withArtefacts++
		}
		if full.ElapsedUS <= 0 {
			t.Errorf("record %s has no elapsed_us", full.ID)
		}
		full.Artefacts = trace.Artefacts{}
		if want, _ := json.Marshal(full); !bytes.Equal(entry, want) {
			t.Errorf("list entry differs from its record without artefacts:\n got %s\nwant %s", entry, want)
		}
	}
	if withArtefacts == 0 {
		t.Error("no listed record had artefacts to drop")
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
