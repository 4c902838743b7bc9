// Command pgakvd serves the answer registry over HTTP JSON — the
// production-facing front door of the reproduction. It assembles the
// synthetic environment once at startup and then answers questions with
// any registered method over either KG schema.
//
// Usage:
//
//	pgakvd [-addr :8080] [-quick] [-seed 42] [-workers 8] [-timeout 30s]
//	       [-cache-size 4096] [-cache-ttl 5m]
//	       [-shard-size 4096] [-compact-threshold 0]
//	       [-llm-concurrency 32] [-stage-timeout 0]
//	       [-data-dir ""] [-fsync interval] [-checkpoint-interval 0]
//	       [-trace-dir ""] [-prompt-dir ""]
//	       [-rate 0] [-burst 8] [-max-inflight 0] [-max-queue 32]
//
// Endpoints:
//
//	GET  /healthz
//	GET  /v1/methods
//	GET  /v1/metrics              per-method counters/latency + cache, dedup, substrate and prompt stats
//	GET  /v1/prompts              loaded prompt versions (active set, candidates, sources)
//	POST /v1/prompts/reload       re-read -prompt-dir and swap the prompt set atomically
//	GET  /v1/traces               recent recorded request traces (-trace-dir servers)
//	GET  /v1/traces/{id}          one full trace record
//	POST /v1/answer               {"question": "...", "method": "ours", "model": "gpt4"}
//	POST /v1/batch                {"method": "cot", "queries": [{"question": "..."}, ...]}
//	POST /v1/ingest               {"kg": "wikidata", "triples": [{"subject": "...", "relation": "...", "object": "..."}]}
//	POST /v1/snapshot/compact     {"kg": "wikidata"}
//	POST /v1/snapshot/checkpoint  {"kg": "wikidata"} (durable servers only)
//
// Serving middleware: every method is wrapped with per-method metrics, an
// LRU+TTL answer cache (disable with -cache-size 0; /v1/answer reports
// X-Cache: hit|miss) and singleflight dedup, so N concurrent identical
// questions cost one pipeline run.
//
// Staged execution: every method runs as a composition of exec stages;
// answer traces and /v1/metrics expose per-stage latency, LLM usage and
// error classes, and -stage-timeout bounds each stage individually. LLM
// calls flow through the shared scheduler (-llm-concurrency): bounded
// concurrency with interactive /v1/answer traffic admitted ahead of
// queued batch work. Per-request token budgets ("token_budget") are
// enforced by the answer registry independently of the scheduler, so
// they hold even with -llm-concurrency 0.
//
// Prompts: every template the methods render is a versioned .prompt file.
// The embedded defaults always load; -prompt-dir overlays operator files
// on top (same name+version replaces, new versions add). SIGHUP or POST
// /v1/prompts/reload re-reads the directory and swaps the whole set
// atomically — an invalid file rejects the reload and the current set
// keeps serving. Answer-cache keys are scoped by the active prompt
// fingerprint, so a reload that changes any active version invalidates
// every cached answer rendered under the old set. Per-request A/B:
// "prompt_versions": {"answer-graph": "2"} in an answer or batch query
// pins specific versions for that request only (candidate versions are
// loaded but never active by default). See docs/operations.md.
//
// Traffic realism: POST /v1/answer with "Accept: text/event-stream"
// streams the run as SSE — one "stage" event per completed pipeline stage,
// then the final "answer" (or "error") event; disconnecting cancels the
// run. -rate/-burst add per-client token-bucket rate limiting (keyed by
// X-API-Key, else the remote address) and -max-inflight/-max-queue add
// queue-depth load shedding: refused requests get a fast 429 with a
// Retry-After header before any pipeline or LLM work. All of it is
// observable in /v1/metrics (admission counters, queue depth). See
// docs/operations.md for overload tuning.
//
// Live ingest: each KG source is a versioned substrate — a sharded,
// concurrently-searched vector index over a frozen base plus a delta of
// ingested triples. /v1/ingest publishes a new snapshot atomically (the
// epoch in every answer identifies which one served it), and
// /v1/snapshot/compact folds the delta into a fresh re-sharded base.
// Cache keys are epoch-scoped, so a swap invalidates all prior answers;
// -compact-threshold N (default 2048) compacts automatically once the
// delta holds N triples, which also bounds per-ingest publish cost — the
// delta store copy each publish makes never exceeds the threshold.
//
// Durability: with -data-dir set, every ingest batch is appended to a
// per-source write-ahead log before it is applied (-fsync
// always|interval|never picks the sync policy) and checkpoints — a
// paired (triples.nt, index.bin) snapshot — are written on compaction,
// on the -checkpoint-interval timer, and on POST
// /v1/snapshot/checkpoint. On boot the server recovers: newest valid
// checkpoint, then WAL tail replay, resuming at a non-regressed epoch so
// epoch-scoped cache keys stay correct across restarts. See
// docs/operations.md for the recovery runbook.
//
// Replication: every durable server exposes /v1/repl/info,
// /v1/repl/bootstrap (tar of the newest checkpoint) and /v1/repl/stream
// (the WAL record chain from a requested epoch, then live appends).
// Starting with -replica-of http://primary:8080 (requires -data-dir)
// makes this node a read replica: at boot it bootstraps any source
// whose local state is behind the primary's checkpoint horizon, then
// streams and applies WAL records through the normal ingest path at
// exactly the primary's epochs — so the epoch in an answer means the
// same content on every node. Replicas reject POST /v1/ingest with a
// 307 to the primary and report applied/head epochs, lag and reconnect
// counts under "replication" in /v1/metrics. cmd/pgakvlb load-balances
// reads across replicas and forwards writes to the primary. See
// docs/operations.md for the replication runbook.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/prompts"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/substrate"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	quick := flag.Bool("quick", false, "use the small test-scale environment (fast startup)")
	seed := flag.Int64("seed", 42, "world/model seed")
	workers := flag.Int("workers", 8, "default batch parallelism")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request deadline (0 = none)")
	cacheSize := flag.Int("cache-size", 4096, "answer cache capacity (0 disables caching and singleflight)")
	cacheTTL := flag.Duration("cache-ttl", 5*time.Minute, "answer cache entry lifetime (0 = no expiry)")
	shardSize := flag.Int("shard-size", 0, "vector-index segment size (0 = vecstore default)")
	compactThreshold := flag.Int("compact-threshold", 2048, "auto-compact when a delta reaches this many triples (0 = manual only; the default bounds per-ingest publish cost)")
	llmConcurrency := flag.Int("llm-concurrency", 32, "max in-flight LLM calls across all traffic; interactive /v1/answer requests preempt queued batch work when saturated (0 = unbounded)")
	stageTimeout := flag.Duration("stage-timeout", 0, "per-stage deadline inside every method run (0 = only the request timeout applies)")
	dataDir := flag.String("data-dir", "", "persist ingested triples under this directory (WAL + checkpoints, one subdirectory per KG source); empty = memory-only, a restart drops post-boot facts")
	traceDir := flag.String("trace-dir", "", "record every answered request as a JSONL trace under this directory (serves GET /v1/traces); empty = tracing off")
	promptDir := flag.String("prompt-dir", "", "overlay .prompt files from this directory on the embedded defaults; SIGHUP or POST /v1/prompts/reload re-reads it (empty = embedded prompts only)")
	fsync := flag.String("fsync", "interval", "WAL sync policy: always (fsync per ingest), interval (background fsync, default), never (OS decides)")
	checkpointInterval := flag.Duration("checkpoint-interval", 0, "write a checkpoint on this timer in addition to compactions and /v1/snapshot/checkpoint (0 = no timer)")
	rate := flag.Float64("rate", 0, "per-client request rate limit on /v1/answer and /v1/batch, in requests/second keyed by X-API-Key or remote address (0 = no rate limiting)")
	burst := flag.Int("burst", 8, "per-client token-bucket burst size (only meaningful with -rate > 0)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently served answer/batch requests; arrivals past it queue, then shed with a fast 429 (0 = unbounded)")
	maxQueue := flag.Int("max-queue", 32, "max requests waiting for an in-flight slot before load shedding begins (only meaningful with -max-inflight > 0)")
	ann := flag.Bool("ann", false, "serve vector retrieval through an HNSW graph over each substrate's compacted base (deltas stay exact-scan until the next compaction); off = exact scans only")
	annEf := flag.Int("ann-ef", 0, "HNSW search beam width; wider = better recall, slower (0 = vecstore default; only meaningful with -ann)")
	replicaOf := flag.String("replica-of", "", "run as a read replica of this primary base URL (e.g. http://host:8080): bootstrap from its checkpoints, stream and apply its WAL, redirect local ingests to it; requires -data-dir")
	flag.Parse()

	if *replicaOf != "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "pgakvd: -replica-of requires -data-dir (replicas persist their own WAL and checkpoints)")
		os.Exit(1)
	}

	fsyncPolicy, err := substrate.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgakvd:", err)
		os.Exit(1)
	}
	cache := serve.CacheConfig{Size: *cacheSize, TTL: *cacheTTL}
	sub := substrate.Config{
		ShardSize:        *shardSize,
		CompactThreshold: *compactThreshold,
		Replica:          *replicaOf != "",
		Durability: substrate.Durability{
			Dir:                *dataDir,
			Fsync:              fsyncPolicy,
			CheckpointInterval: *checkpointInterval,
		},
		ANN: substrate.ANNConfig{
			Enabled:  *ann,
			EfSearch: *annEf,
		},
	}
	admission := serve.AdmissionConfig{
		Limiter:     serve.LimiterConfig{Rate: *rate, Burst: *burst},
		MaxInFlight: *maxInFlight,
		MaxQueue:    *maxQueue,
	}
	if err := run(*addr, *quick, *seed, *workers, *timeout, cache, sub, *llmConcurrency, *stageTimeout, *traceDir, *promptDir, admission, *replicaOf); err != nil {
		fmt.Fprintln(os.Stderr, "pgakvd:", err)
		os.Exit(1)
	}
}

func run(addr string, quick bool, seed int64, workers int, timeout time.Duration, cache serve.CacheConfig, sub substrate.Config, llmConcurrency int, stageTimeout time.Duration, traceDir, promptDir string, admission serve.AdmissionConfig, replicaOf string) error {
	cfg := bench.DefaultEnvConfig()
	if quick {
		cfg = bench.QuickEnvConfig()
	}
	cfg.WorldSeed = seed
	cfg.Workers = workers
	cfg.Cache = cache
	cfg.Substrate = sub
	cfg.LLMConcurrency = llmConcurrency
	cfg.Core.StageTimeout = stageTimeout
	reg := prompts.NewRegistry()
	if promptDir != "" {
		if err := reg.LoadDir(promptDir); err != nil {
			return fmt.Errorf("loading prompts: %w", err)
		}
	}
	cfg.Prompts = reg
	fmt.Printf("prompts active: %s\n", reg.Fingerprint())
	if traceDir != "" {
		store, err := trace.NewFileStore(traceDir)
		if err != nil {
			return fmt.Errorf("opening trace store: %w", err)
		}
		defer store.Close()
		cfg.Trace = store
		stats := store.Stats()
		fmt.Printf("tracing to %s (%d existing record(s), %d dropped on recovery)\n", stats.Path, stats.Records, stats.Dropped)
	}

	if replicaOf != "" {
		// Pre-flight: a source whose local state is behind the primary's
		// checkpoint horizon can never catch up over the WAL stream (the
		// primary truncated the log at the checkpoint epoch), so fetch the
		// checkpoint tarball now. Boot recovery below validates and loads
		// it exactly like a locally written checkpoint.
		bctx, bcancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer bcancel()
		client := &http.Client{Timeout: 5 * time.Minute}
		for _, src := range []string{"wikidata", "freebase"} {
			res, err := repl.BootstrapIfBehind(bctx, client, replicaOf, src, filepath.Join(sub.Durability.Dir, src))
			if err != nil {
				return fmt.Errorf("replica bootstrap (%s): %w", src, err)
			}
			if res.Fetched {
				fmt.Printf("replica bootstrap: fetched %s checkpoint at epoch %d from %s\n", src, res.Epoch, replicaOf)
			}
		}
	}

	start := time.Now()
	env, err := bench.NewEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()
	fmt.Printf("environment ready in %v: %s\n", time.Since(start).Round(time.Millisecond), env.World.Stats())
	if sub.Durability.Enabled() {
		for src, mgr := range env.Substrates {
			rec := mgr.Recovery()
			checkpoint := "no checkpoint"
			if rec.CheckpointEpoch > 0 {
				checkpoint = fmt.Sprintf("recovered checkpoint epoch %d (%d triples)", rec.CheckpointEpoch, rec.CheckpointTriples)
			}
			fmt.Printf("substrate %s: durable (fsync=%s), %s, replayed %d wal record(s) (%d triples), dropped %d torn record(s)\n",
				src, sub.Durability.Fsync, checkpoint, rec.ReplayedRecords, rec.ReplayedTriples, rec.TornRecordsDropped)
		}
	}

	server := NewServer(env, timeout)
	if sub.Durability.Enabled() {
		// Every durable node serves the replication endpoints: replicas
		// mirror the primary's record chain in their own WAL, so they can
		// in turn bootstrap and feed further replicas (chained topologies).
		mgrs := make(map[string]repl.Manager, len(env.Substrates))
		for src, mgr := range env.Substrates {
			mgrs[src.String()] = mgr
		}
		server.WithReplSource(repl.NewSource(mgrs, replicaOf != ""))
	}
	if replicaOf != "" {
		actx, acancel := context.WithCancel(context.Background())
		defer acancel()
		var appliers []*repl.Applier
		for src, mgr := range env.Substrates {
			a, err := repl.NewApplier(repl.ApplierConfig{Primary: replicaOf, Source: src.String(), Manager: mgr})
			if err != nil {
				return err
			}
			appliers = append(appliers, a)
			go a.Run(actx)
		}
		server.WithReplication(replicaOf, appliers)
		fmt.Printf("replicating %d source(s) from %s\n", len(appliers), replicaOf)
	}
	if admission.Limiter.Rate > 0 || admission.MaxInFlight > 0 {
		server.WithAdmission(serve.NewAdmission(admission))
		fmt.Printf("admission control on: rate=%.1f/s burst=%d max-inflight=%d max-queue=%d\n",
			admission.Limiter.Rate, admission.Limiter.Burst, admission.MaxInFlight, admission.MaxQueue)
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("listening on %s\n", addr)
		errCh <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	for {
		select {
		case err := <-errCh:
			return err
		case <-hup:
			// Hot reload: re-read -prompt-dir and swap the prompt set
			// atomically. A bad file rejects the whole reload — the set that
			// was serving keeps serving.
			if err := env.Prompts.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "pgakvd: prompt reload failed, keeping current set: %v\n", err)
			} else {
				fmt.Printf("prompts reloaded: %s\n", env.Prompts.Fingerprint())
			}
		case sig := <-stop:
			fmt.Printf("received %v, draining...\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			return nil
		}
	}
}
