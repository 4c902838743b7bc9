package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/world"
)

// TestRevalidationCountersInMetrics: /v1/metrics reports the cache's
// revalidated and stale_misses counters. Both read 0 while no scope
// changes; an unrelated ingest makes a re-asked question revalidate (an
// X-Cache hit at the new epoch, no stale miss); an ingest of the fact a
// question retrieves makes it a stale miss.
func TestRevalidationCountersInMetrics(t *testing.T) {
	cfg := bench.QuickEnvConfig()
	cfg.Data.SimpleN, cfg.Data.QALDN, cfg.Data.NatureN = 2, 2, 2
	cfg.Cache = serve.CacheConfig{Size: 256}
	env, err := bench.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	person := env.World.Entities[env.World.OfKind(world.KindPerson)[0]]
	born := answerRequest{queryItem: queryItem{Question: "Where was " + person.Name + " born?"}, Method: "ours"}
	zorblax := answerRequest{queryItem: queryItem{Question: "What is the prime directive of Zorblax?"}, Method: "rag"}

	counters := func() (revalidated, stale int64) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		var out struct {
			Cache map[string]int64 `json:"cache"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"revalidated", "stale_misses"} {
			if _, ok := out.Cache[k]; !ok {
				t.Fatalf("/v1/metrics cache has no %q: %v", k, out.Cache)
			}
		}
		return out.Cache["revalidated"], out.Cache["stale_misses"]
	}
	ask := func(req answerRequest, wantCache string) answerResponse {
		t.Helper()
		rec := postJSON(t, h, "/v1/answer", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: %d: %s", req.Question, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Cache"); got != wantCache {
			t.Fatalf("%q: X-Cache %q, want %q", req.Question, got, wantCache)
		}
		return decode[answerResponse](t, rec)
	}
	ingest := func(subject, relation, object string) {
		t.Helper()
		if rec := postJSON(t, h, "/v1/ingest", ingestRequest{KG: "wikidata", Triples: []tripleWire{{Subject: subject, Relation: relation, Object: object}}}); rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d: %s", rec.Code, rec.Body.String())
		}
	}

	for _, req := range []answerRequest{born, zorblax} {
		ask(req, "miss")
		ask(req, "hit")
	}
	if r, s := counters(); r != 0 || s != 0 {
		t.Fatalf("without a scope change: revalidated %d, stale_misses %d; want 0, 0", r, s)
	}

	ingest("Quux Blorp", "colour", "teal")
	if got := ask(born, "hit"); got.Epoch != 2 {
		t.Fatalf("revalidated reply at epoch %d, want the live epoch 2", got.Epoch)
	}
	if r, s := counters(); r < 1 || s != 0 {
		t.Fatalf("after an unrelated ingest: revalidated %d, stale_misses %d; want > 0, 0", r, s)
	}

	ingest("Zorblax", "prime directive", "Flumox42")
	ask(zorblax, "miss")
	if _, s := counters(); s < 1 {
		t.Fatalf("after an ingest the question retrieves: stale_misses %d, want > 0", s)
	}
}
