package main

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"repro/internal/node"
	"repro/internal/prompts"
	"repro/internal/serve"
	"repro/internal/substrate"
	"repro/internal/trace"
)

// Config is everything pgakvd is started with. Every field but MaxBody
// is set by a flag (the table in docs/operations.md documents them);
// flags that size a layer land directly in that layer's own config.
type Config struct {
	Addr           string
	Quick          bool
	Seed           int64
	Workers        int
	Timeout        time.Duration
	StageTimeout   time.Duration
	LLMConcurrency int
	Cache          serve.CacheConfig // -cache-size, -cache-ttl
	// Substrate carries -shard-size, -compact-threshold, -data-dir,
	// -checkpoint-interval, -ann and -ann-ef; its Replica and
	// Durability.Fsync are derived from ReplicaOf and Fsync.
	Substrate substrate.Config
	Fsync     string
	Admission serve.AdmissionConfig // -rate, -burst, -max-inflight, -max-queue
	TraceDir  string
	PromptDir string
	ReplicaOf string
	DebugAddr string

	// MaxBody bounds every POST body; oversized requests get 413 before
	// the decoder buffers them. No flag: only tests tighten it.
	MaxBody int64
}

// parseFlags reads and validates the command line; parseFlags(nil) is
// the default server.
func parseFlags(args []string) (Config, error) {
	c := Config{MaxBody: 8 << 20}
	flags(&c).Parse(args) // ExitOnError: a bad flag has already exited
	return c, c.Validate()
}

// flags registers every pgakvd flag, each bound to its field of c. The
// "Flags reference" table in docs/operations.md lists exactly this set
// with these defaults; a test holds the two together.
func flags(c *Config) *flag.FlagSet {
	fs := flag.NewFlagSet("pgakvd", flag.ExitOnError)
	fs.StringVar(&c.Addr, "addr", ":8080", "listen address")
	fs.BoolVar(&c.Quick, "quick", false, "use the small test-scale environment (fast startup)")
	fs.Int64Var(&c.Seed, "seed", 42, "world/model seed")
	fs.IntVar(&c.Workers, "workers", 8, "default batch parallelism")
	fs.DurationVar(&c.Timeout, "timeout", 60*time.Second, "per-request deadline (0 = none)")
	fs.IntVar(&c.Cache.Size, "cache-size", 4096, "answer cache capacity (0 disables caching and singleflight)")
	fs.DurationVar(&c.Cache.TTL, "cache-ttl", 5*time.Minute, "answer cache entry lifetime (0 = no expiry)")
	fs.IntVar(&c.Substrate.ShardSize, "shard-size", 0, "vector-index block size, and the chunk size of its arena (0 = vecstore default)")
	fs.IntVar(&c.Substrate.CompactThreshold, "compact-threshold", 2048, "auto-compact when a delta reaches this many triples (0 = manual only); bounds the rows -ann scans exactly, and the WAL tail a durable restart replays")
	fs.IntVar(&c.LLMConcurrency, "llm-concurrency", 32, "max in-flight LLM calls across all traffic; calls past it wait first come, first served (0 = unbounded)")
	fs.DurationVar(&c.StageTimeout, "stage-timeout", 0, "per-stage deadline inside every method run (0 = only the request timeout applies)")
	fs.StringVar(&c.Substrate.Durability.Dir, "data-dir", "", "persist ingested triples under this directory (WAL + checkpoints, one subdirectory per KG source); empty = memory-only, a restart drops post-boot facts")
	fs.StringVar(&c.TraceDir, "trace-dir", "", "record every answered request as a JSONL trace under this directory (serves GET /v1/traces); empty = tracing off")
	fs.StringVar(&c.PromptDir, "prompt-dir", "", "overlay .prompt files from this directory on the embedded defaults; SIGHUP or POST /v1/prompts/reload re-reads it (empty = embedded prompts only)")
	fs.StringVar(&c.Fsync, "fsync", "interval", "WAL sync policy: always (fsync per ingest), interval (background fsync, default), never (OS decides)")
	fs.DurationVar(&c.Substrate.Durability.CheckpointInterval, "checkpoint-interval", 0, "write a checkpoint on this timer in addition to compactions and /v1/snapshot/checkpoint (0 = no timer)")
	fs.Float64Var(&c.Admission.Limiter.Rate, "rate", 0, "per-client request rate limit on /v1/answer and /v1/batch, in requests/second keyed by X-API-Key or remote address (0 = no rate limiting)")
	fs.IntVar(&c.Admission.Limiter.Burst, "burst", 8, "per-client token-bucket burst size (only meaningful with -rate > 0)")
	fs.IntVar(&c.Admission.MaxInFlight, "max-inflight", 0, "max concurrently served answer/batch requests; arrivals past it queue, then shed with a fast 429 (0 = unbounded)")
	fs.IntVar(&c.Admission.MaxQueue, "max-queue", 32, "max requests waiting for an in-flight slot before load shedding begins (only meaningful with -max-inflight > 0)")
	fs.BoolVar(&c.Substrate.ANN.Enabled, "ann", false, "serve vector retrieval through an HNSW graph over each substrate's compacted base (deltas stay exact-scan until the next compaction); off = exact scans only")
	fs.IntVar(&c.Substrate.ANN.EfSearch, "ann-ef", 0, "HNSW search beam width; wider = better recall, slower (0 = vecstore default; only meaningful with -ann)")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve runtime profiles (net/http/pprof, under /debug/pprof/) on this separate listen address, never on -addr (empty = off)")
	fs.StringVar(&c.ReplicaOf, "replica-of", "", "run as a read replica of this primary base URL (e.g. http://host:8080): bootstrap from its checkpoints, stream and apply its WAL, redirect local ingests to it; requires -data-dir")
	return fs
}

// Validate rejects flag values the server cannot start with.
func (c Config) Validate() error {
	if c.ReplicaOf != "" && !c.Substrate.Durability.Enabled() {
		return errors.New("-replica-of requires -data-dir (replicas persist their own WAL and checkpoints)")
	}
	if c.DebugAddr != "" && c.DebugAddr == c.Addr {
		return errors.New("-debug-addr must differ from -addr (profiles are never served on the serving port)")
	}
	if _, err := substrate.ParseSyncPolicy(c.Fsync); err != nil {
		return err
	}
	for _, size := range []struct {
		flag  string
		value int
	}{
		{"workers", c.Workers},
		{"cache-size", c.Cache.Size},
		{"shard-size", c.Substrate.ShardSize},
		{"compact-threshold", c.Substrate.CompactThreshold},
		{"llm-concurrency", c.LLMConcurrency},
		{"burst", c.Admission.Limiter.Burst},
		{"max-inflight", c.Admission.MaxInFlight},
		{"max-queue", c.Admission.MaxQueue},
		{"ann-ef", c.Substrate.ANN.EfSearch},
	} {
		if size.value < 0 {
			return fmt.Errorf("-%s must not be negative", size.flag)
		}
	}
	return nil
}

// node is the node these flags size. Call after Validate.
func (c Config) node(reg *prompts.Registry, traces *trace.FileStore) node.Config {
	cfg := node.ConfigFor(c.Quick)
	cfg.WorldSeed = c.Seed
	cfg.Core.StageTimeout = c.StageTimeout
	cfg.Cache = c.Cache
	cfg.Substrate = c.Substrate
	cfg.Substrate.Replica = c.ReplicaOf != ""
	cfg.Substrate.Durability.Fsync, _ = substrate.ParseSyncPolicy(c.Fsync) // Validate has checked it
	cfg.LLMConcurrency = c.LLMConcurrency
	cfg.Trace = traces
	cfg.Prompts = reg
	return cfg
}
