// Command pgakvd serves the answer registry over HTTP JSON — the
// production-facing front door of the reproduction. It assembles one
// serving node (internal/node) at startup and then answers questions
// with any registered method over either KG schema.
//
// Usage:
//
//	pgakvd [-addr :8080] [-quick] [-data-dir DIR] [-replica-of URL] ...
//
// The flag table in docs/operations.md ("Flags reference") lists every
// flag with its default.
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
//	GET  /debug/pprof/            runtime profiles, on the -debug-addr listener only
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
// concurrency, admitted first come, first served. Per-request token
// budgets ("token_budget") are enforced by each query's llm.Counting
// independently of the scheduler, so they hold even with
// -llm-concurrency 0.
//
// Prompts: every template the methods render is a versioned .prompt file.
// The embedded defaults always load; -prompt-dir overlays operator files
// on top (same name+version replaces, new versions add). SIGHUP or POST
// /v1/prompts/reload re-reads the directory and swaps the whole set
// atomically — an invalid file rejects the reload and the current set
// keeps serving. Every cached answer records the prompt fingerprint it
// rendered with, so after a reload that changes any active version no
// answer rendered under the old set is served again. Per-request A/B:
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
// Live ingest: each KG source is a versioned substrate — one append-only
// triple store and one append-only vector arena over the same rows,
// searched block by block, concurrently. /v1/ingest appends and publishes
// a new snapshot atomically (the epoch in every answer identifies which
// one served it); /v1/snapshot/compact makes the rows so far the base,
// and under -ann rebuilds the graph over them.
// After a swap a cached answer is served again only if the KG reads it was
// computed from — its top-k lists, subject blocks and probes — replay
// identically against the new snapshot (X-Cache: hit, at the new epoch);
// an answer whose reads changed is a miss and runs again. A compaction
// changes no read, so it keeps every cached answer, and a cached answer
// revalidated after an ingest searches only the rows added since its last
// replay. -compact-threshold N (default 2048) compacts automatically once
// the delta holds N triples. A publish copies nothing whatever the delta's
// size, so the threshold bounds the delta itself: the rows -ann scans
// exactly instead of through the graph, and, on durable servers, the WAL
// tail a restart replays (a compaction writes a checkpoint).
//
// Durability: with -data-dir set, every ingest batch is appended to a
// per-source write-ahead log before it is applied (-fsync
// always|interval|never picks the sync policy) and checkpoints — the
// snapshot's triples.nt under a manifest holding its hash, plus the HNSW
// graph.bin under -ann; vectors are re-encoded at boot, never stored —
// are written on compaction, on the -checkpoint-interval timer, and on
// POST /v1/snapshot/checkpoint. On boot the server recovers: newest valid
// checkpoint, then WAL tail replay, resuming at a non-regressed epoch so
// the epochs clients see never go backwards across restarts. See
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
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/node"
	"repro/internal/prompts"
	"repro/internal/repl"
	"repro/internal/trace"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgakvd:", err)
		os.Exit(1)
	}
}

func run(cfg Config) error {
	reg := prompts.NewRegistry()
	if cfg.PromptDir != "" {
		if err := reg.LoadDir(cfg.PromptDir); err != nil {
			return fmt.Errorf("loading prompts: %w", err)
		}
	}
	fmt.Printf("prompts active: %s\n", reg.Fingerprint())
	var traces *trace.FileStore
	if cfg.TraceDir != "" {
		var err error
		if traces, err = trace.NewFileStore(cfg.TraceDir); err != nil {
			return fmt.Errorf("opening trace store: %w", err)
		}
		defer traces.Close()
		stats := traces.Stats()
		fmt.Printf("tracing to %s (%d existing record(s), %d dropped on recovery)\n", stats.Path, stats.Records, stats.Dropped)
	}

	if cfg.ReplicaOf != "" {
		// Pre-flight: a source whose local state is behind the primary's
		// checkpoint horizon can never catch up over the WAL stream (the
		// primary truncated the log at the checkpoint epoch), so fetch the
		// checkpoint tarball now. Boot recovery below validates and loads
		// it exactly like a locally written checkpoint.
		bctx, bcancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer bcancel()
		client := &http.Client{Timeout: 5 * time.Minute}
		for _, src := range node.Sources {
			res, err := repl.BootstrapIfBehind(bctx, client, cfg.ReplicaOf, src.String(), filepath.Join(cfg.Substrate.Durability.Dir, src.String()))
			if err != nil {
				return fmt.Errorf("replica bootstrap (%s): %w", src, err)
			}
			if res.Fetched {
				fmt.Printf("replica bootstrap: fetched %s checkpoint at epoch %d from %s\n", src, res.Epoch, cfg.ReplicaOf)
			}
		}
	}

	start := time.Now()
	n, err := node.New(cfg.node(reg, traces))
	if err != nil {
		return err
	}
	defer n.Close()
	fmt.Printf("environment ready in %v: %s\n", time.Since(start).Round(time.Millisecond), n.World.Stats())
	if cfg.Substrate.Durability.Enabled() {
		for _, src := range node.Sources {
			rec := n.Substrates[src].Recovery()
			checkpoint := "no checkpoint"
			if rec.CheckpointEpoch > 0 {
				checkpoint = fmt.Sprintf("recovered checkpoint epoch %d (%d triples)", rec.CheckpointEpoch, rec.CheckpointTriples)
			}
			fmt.Printf("substrate %s: durable (fsync=%s), %s, replayed %d wal record(s) (%d triples), dropped %d torn record(s)\n",
				src, cfg.Fsync, checkpoint, rec.ReplayedRecords, rec.ReplayedTriples, rec.TornRecordsDropped)
		}
	}

	server, err := NewServer(n, cfg)
	if err != nil {
		return err
	}
	if len(server.appliers) > 0 {
		actx, acancel := context.WithCancel(context.Background())
		defer acancel()
		for _, a := range server.appliers {
			go a.Run(actx)
		}
		fmt.Printf("replicating %d source(s) from %s\n", len(server.appliers), cfg.ReplicaOf)
	}
	if server.admit != nil {
		fmt.Printf("admission control on: rate=%.1f/s burst=%d max-inflight=%d max-queue=%d\n",
			cfg.Admission.Limiter.Rate, cfg.Admission.Limiter.Burst, cfg.Admission.MaxInFlight, cfg.Admission.MaxQueue)
	}
	srvs := listeners(cfg, server)
	errCh := make(chan error, len(srvs))
	for _, srv := range srvs {
		go func() {
			fmt.Printf("listening on %s\n", srv.Addr)
			errCh <- srv.ListenAndServe()
		}()
	}

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
			if err := reg.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "pgakvd: prompt reload failed, keeping current set: %v\n", err)
			} else {
				fmt.Printf("prompts reloaded: %s\n", reg.Fingerprint())
			}
		case sig := <-stop:
			fmt.Printf("received %v, draining...\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			for _, srv := range srvs {
				if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
					return err
				}
			}
			return nil
		}
	}
}
