package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/failure"
	"repro/internal/serve"
	"repro/internal/substrate"
)

// durableEnv builds a small cache-enabled environment persisting under
// dir with per-ingest fsyncs, so an abandoned environment (our stand-in
// for kill -9 — file descriptors vanish, no flush, no Close) leaves
// every acknowledged ingest on disk.
func durableEnv(t *testing.T, dir string) *bench.Env {
	t.Helper()
	cfg := bench.QuickEnvConfig()
	cfg.Data.SimpleN = 6
	cfg.Data.QALDN = 4
	cfg.Data.NatureN = 2
	cfg.Cache = serve.CacheConfig{Size: 256, TTL: time.Hour}
	cfg.Substrate = substrate.Config{
		ShardSize:  512,
		Durability: substrate.Durability{Dir: dir, Fsync: substrate.SyncAlways},
	}
	env, err := bench.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestRecoveryEndToEnd is the durability acceptance criterion at the
// serving layer: ingest over HTTP, crash, restart on the same data dir
// — the ingested facts answer identically and the epoch never
// regresses, so epoch-scoped cache keys stay correct across restarts.
func TestRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	env1 := durableEnv(t, dir)
	h1 := testServer(t, env1, testConfig(30*time.Second)).Handler()

	ing := postJSON(t, h1, "/v1/ingest", ingestRequest{
		KG: "wikidata",
		Triples: []tripleWire{
			{Subject: "Zorblax", Relation: "prime directive", Object: "Flumox42"},
			{Subject: "Zorblax", Relation: "homeworld", Object: "Kepler-42b"},
		},
	})
	if ing.Code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", ing.Code, ing.Body.String())
	}
	question := answerRequest{
		queryItem: queryItem{Question: "What is the prime directive of Zorblax?"},
		Method:    "rag",
	}
	rec := postJSON(t, h1, "/v1/answer", question)
	if rec.Code != http.StatusOK {
		t.Fatalf("pre-crash answer: %d: %s", rec.Code, rec.Body.String())
	}
	pre := decode[answerResponse](t, rec)
	if !strings.Contains(pre.Answer, "Flumox42") {
		t.Fatalf("pre-crash answer does not use the ingested fact: %q", pre.Answer)
	}
	// Crash: env1 is abandoned without Close. SyncAlways already forced
	// the ingest records to stable storage.

	env2 := durableEnv(t, dir)
	defer env2.Close()
	h2 := testServer(t, env2, testConfig(30*time.Second)).Handler()
	rec = postJSON(t, h2, "/v1/answer", question)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-restart answer: %d: %s", rec.Code, rec.Body.String())
	}
	post := decode[answerResponse](t, rec)
	if post.Answer != pre.Answer {
		t.Fatalf("answer changed across restart: %q -> %q", pre.Answer, post.Answer)
	}
	if post.Epoch < pre.Epoch {
		t.Fatalf("epoch regressed across restart: %d -> %d", pre.Epoch, post.Epoch)
	}

	// The restarted server keeps full serving function: re-ingest is
	// idempotent, checkpoints write on demand, and metrics report the
	// recovery.
	ing = postJSON(t, h2, "/v1/ingest", ingestRequest{
		KG:      "wikidata",
		Triples: []tripleWire{{Subject: "Zorblax", Relation: "prime directive", Object: "Flumox42"}},
	})
	if ing.Code != http.StatusOK {
		t.Fatalf("post-restart ingest: %d: %s", ing.Code, ing.Body.String())
	}
	if res := decode[ingestResponse](t, ing); res.Added != 0 || res.Skipped != 1 {
		t.Fatalf("recovered fact re-ingested as new: %+v", res)
	}
	cp := postJSON(t, h2, "/v1/snapshot/checkpoint", sourceRequest{KG: "wikidata"})
	if cp.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d: %s", cp.Code, cp.Body.String())
	}
	if res := decode[checkpointResponse](t, cp); res.Epoch < post.Epoch {
		t.Fatalf("checkpoint epoch %d below serving epoch %d", res.Epoch, post.Epoch)
	}
	stats := env2.SubstrateStats()["wikidata"]
	if !stats.Durability.Enabled || stats.Durability.Recovery.ReplayedTriples != 2 {
		t.Fatalf("durability stats do not reflect the recovery: %+v", stats.Durability)
	}
}

// TestCheckpointEndpointRequiresDurability: a memory-only server says
// so, as a server that cannot serve the request (501 "unsupported"),
// neither a 500 nor a client error.
func TestCheckpointEndpointRequiresDurability(t *testing.T) {
	env := ingestEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	rec := postJSON(t, h, "/v1/snapshot/checkpoint", sourceRequest{KG: "wikidata"})
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501: %s", rec.Code, rec.Body.String())
	}
	if resp := decode[errorResponse](t, rec); resp.Class != failure.Unsupported {
		t.Fatalf("class %q, want %q", resp.Class, failure.Unsupported)
	}
	if !strings.Contains(rec.Body.String(), "-data-dir") {
		t.Fatalf("error does not point at -data-dir: %s", rec.Body.String())
	}
}

// TestIngestServerFaultIs500: a WAL append that fails is the server's
// fault, not the client's — 500 "storage" (retryable), never the 400
// "invalid-query" a malformed triple gets.
func TestIngestServerFaultIs500(t *testing.T) {
	env := durableEnv(t, t.TempDir())
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, h, "/v1/ingest", ingestRequest{
		KG:      "wikidata",
		Triples: []tripleWire{{Subject: "Zorblax", Relation: "prime directive", Object: "Flumox"}},
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("ingest on a closed WAL: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if resp := decode[errorResponse](t, rec); resp.Class != failure.Storage {
		t.Fatalf("class %q, want %q", resp.Class, failure.Storage)
	}
}
