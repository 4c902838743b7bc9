package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/substrate"
)

// ingestEnv builds a small cache-enabled environment with multi-shard
// substrates — the configuration the hot-swap guarantees are about.
func ingestEnv(t *testing.T) *bench.Env {
	t.Helper()
	cfg := bench.QuickEnvConfig()
	cfg.Data.SimpleN = 10
	cfg.Data.QALDN = 6
	cfg.Data.NatureN = 4
	cfg.Cache = serve.CacheConfig{Size: 256, TTL: time.Hour}
	cfg.Substrate = substrate.Config{ShardSize: 512}
	return newEnv(t, cfg)
}

// TestIngestHotSwapEndToEnd is the live-ingest acceptance criterion:
// a fact POSTed to /v1/ingest becomes answerable without a restart, the
// read-validated cache never serves a stale pre-swap answer, and
// compaction preserves the fact while bumping the epoch again — and,
// changing no read, keeps the cached answer.
func TestIngestHotSwapEndToEnd(t *testing.T) {
	env := ingestEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	question := answerRequest{
		queryItem: queryItem{Question: "What is the prime directive of Zorblax?"},
		Method:    "rag",
	}

	// Before ingest: the substrate knows nothing about Zorblax.
	rec := postJSON(t, h, "/v1/answer", question)
	if rec.Code != http.StatusOK {
		t.Fatalf("pre-ingest answer: %d: %s", rec.Code, rec.Body.String())
	}
	pre := decode[answerResponse](t, rec)
	if strings.Contains(pre.Answer, "Flumox42") {
		t.Fatalf("fact known before ingest: %q", pre.Answer)
	}
	if pre.Epoch != 1 {
		t.Fatalf("pre-ingest epoch = %d, want 1", pre.Epoch)
	}
	// Warm the cache with the stale answer.
	if rec = postJSON(t, h, "/v1/answer", question); rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second identical query should hit the cache, got %q", rec.Header().Get("X-Cache"))
	}

	// Ingest the fact.
	rec = postJSON(t, h, "/v1/ingest", ingestRequest{
		KG: "wikidata",
		Triples: []tripleWire{
			{Subject: "Zorblax", Relation: "prime directive", Object: "Flumox42"},
			{Subject: "Zorblax", Relation: "homeworld", Object: "Kepler-42b"},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", rec.Code, rec.Body.String())
	}
	ing := decode[ingestResponse](t, rec)
	if ing.Added != 2 || ing.Epoch != 2 || ing.DeltaTriples != 2 {
		t.Fatalf("ingest response: %+v", ing)
	}

	// The cached stale answer must NOT be served: the epoch scope changed
	// and the question's retrieval now returns the ingested triples, so
	// revalidation refuses the entry and this is a miss that runs against
	// the new snapshot and finds the fact — no restart, no manual
	// invalidation.
	rec = postJSON(t, h, "/v1/answer", question)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-ingest answer: %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("post-swap query served from the stale cache (X-Cache = %q)", got)
	}
	post := decode[answerResponse](t, rec)
	if !strings.Contains(post.Answer, "Flumox42") {
		t.Fatalf("ingested fact not answerable: %q", post.Answer)
	}
	if post.Epoch != 2 {
		t.Fatalf("post-ingest epoch = %d, want 2", post.Epoch)
	}
	// The new answer caches under the new scope.
	if rec = postJSON(t, h, "/v1/answer", question); rec.Header().Get("X-Cache") != "hit" {
		t.Fatal("fresh answer did not cache under the new epoch")
	}
	if hit := decode[answerResponse](t, rec); !strings.Contains(hit.Answer, "Flumox42") {
		t.Fatalf("cached post-swap answer is stale: %q", hit.Answer)
	}

	// Re-ingesting is idempotent and does not bump the epoch.
	rec = postJSON(t, h, "/v1/ingest", ingestRequest{
		KG:      "wikidata",
		Triples: []tripleWire{{Subject: "Zorblax", Relation: "prime directive", Object: "Flumox42"}},
	})
	if again := decode[ingestResponse](t, rec); again.Added != 0 || again.Skipped != 1 || again.Epoch != 2 {
		t.Fatalf("re-ingest: %+v", again)
	}

	// Compact: the delta folds into the base, the epoch bumps, and the
	// fact survives. Compaction changes no read — triple IDs, subject
	// blocks and top-k lists are what they were — so the cached answer
	// revalidates: a hit, at the new epoch.
	rec = postJSON(t, h, "/v1/snapshot/compact", sourceRequest{KG: "wikidata"})
	if rec.Code != http.StatusOK {
		t.Fatalf("compact: %d: %s", rec.Code, rec.Body.String())
	}
	comp := decode[compactResponse](t, rec)
	if comp.Epoch != 3 || comp.DeltaTriples != 0 {
		t.Fatalf("compact response: %+v", comp)
	}
	rec = postJSON(t, h, "/v1/answer", question)
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("post-compaction query did not revalidate (X-Cache = %q)", got)
	}
	final := decode[answerResponse](t, rec)
	if !strings.Contains(final.Answer, "Flumox42") || final.Epoch != 3 {
		t.Fatalf("post-compaction answer: %+v", final)
	}

	// Metrics expose the substrate state.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	metrics := decode[metricsResponse](t, rec2)
	wiki, ok := metrics.Substrates["wikidata"]
	if !ok {
		t.Fatal("metrics missing wikidata substrate")
	}
	if wiki.Epoch != 3 || wiki.DeltaTriples != 0 || wiki.Compactions != 1 || wiki.Ingests != 1 {
		t.Fatalf("substrate metrics: %+v", wiki)
	}
	if wiki.Shards < 2 {
		t.Fatalf("expected a multi-shard index, got %d shards", wiki.Shards)
	}
	// The freebase substrate was never touched.
	if fb := metrics.Substrates["freebase"]; fb.Epoch != 1 || fb.DeltaTriples != 0 {
		t.Fatalf("freebase substrate moved: %+v", fb)
	}
}

func TestIngestValidation(t *testing.T) {
	env := ingestEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()

	rec := postJSON(t, h, "/v1/ingest", ingestRequest{KG: "wikidata"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty ingest: %d", rec.Code)
	}
	rec = postJSON(t, h, "/v1/ingest", ingestRequest{
		KG:      "nope",
		Triples: []tripleWire{{Subject: "a", Relation: "r", Object: "o"}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown source: %d", rec.Code)
	}
	rec = postJSON(t, h, "/v1/ingest", ingestRequest{
		KG:      "wikidata",
		Triples: []tripleWire{{Subject: "a", Relation: "", Object: "o"}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty-field triple: %d", rec.Code)
	}
	rec = postJSON(t, h, "/v1/ingest", ingestRequest{
		KG:      "wikidata",
		Triples: []tripleWire{{Subject: "a", Relation: "r", Object: "<o>"}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("reserved-character triple: %d", rec.Code)
	}
	rec = postJSON(t, h, "/v1/snapshot/compact", sourceRequest{KG: "nope"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("compact unknown source: %d", rec.Code)
	}
	// "unknown" parses as a valid Source but has no substrate: it must be
	// a clean 400 on every route, never a nil-manager panic.
	for _, probe := range []func() int{
		func() int {
			return postJSON(t, h, "/v1/answer", answerRequest{
				queryItem: queryItem{Question: "q?"}, Method: "rag", KG: "unknown",
			}).Code
		},
		func() int {
			return postJSON(t, h, "/v1/ingest", ingestRequest{
				KG: "unknown", Triples: []tripleWire{{Subject: "a", Relation: "r", Object: "o"}},
			}).Code
		},
		func() int {
			return postJSON(t, h, "/v1/snapshot/compact", sourceRequest{KG: "unknown"}).Code
		},
	} {
		if code := probe(); code != http.StatusBadRequest {
			t.Errorf("source \"unknown\": status %d, want 400", code)
		}
	}
}

// TestAnswerMidIngestConsistency hammers /v1/answer while a writer
// ingests a stream of fresh facts: every response must come back 200 with
// a coherent epoch — no partially-swapped substrate is ever observable
// through the API.
func TestAnswerMidIngestConsistency(t *testing.T) {
	env := ingestEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := postJSON(t, h, "/v1/ingest", ingestRequest{
				KG:      "wikidata",
				Triples: []tripleWire{{Subject: "Streamed", Relation: "value", Object: fmt.Sprintf("v%d", i)}},
			})
			if rec.Code != http.StatusOK {
				t.Errorf("mid-stream ingest: %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()

	q := answerRequest{queryItem: queryItem{Question: "What is the value of Streamed?"}, Method: "rag"}
	deadline := time.Now().Add(2 * time.Second)
	answers := 0
	for time.Now().Before(deadline) {
		rec := postJSON(t, h, "/v1/answer", q)
		if rec.Code != http.StatusOK {
			t.Errorf("mid-ingest answer: %d: %s", rec.Code, rec.Body.String())
			break
		}
		res := decode[answerResponse](t, rec)
		if res.Epoch == 0 {
			t.Error("mid-ingest answer lost its epoch")
			break
		}
		answers++
	}
	close(stop)
	wg.Wait()
	if answers == 0 {
		t.Fatal("no answers served during the ingest stream")
	}
}
