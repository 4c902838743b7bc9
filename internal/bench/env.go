// Package bench is the experiment harness: it assembles the full
// environment (world, KG stores in both schemas, vector indexes, simulated
// models, datasets) and regenerates every table and figure of the paper's
// evaluation section (cmd/benchrun's -experiment flag is the index).
//
// Method execution goes through the unified answer registry: every cell is
// an answer.Batch over the dataset with the harness's worker budget, so
// the bench exercises exactly the surface production callers use.
package bench

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/prompts"
	"repro/internal/qa"
	"repro/internal/serve"
	"repro/internal/substrate"
	"repro/internal/trace"
	"repro/internal/vecstore"
	"repro/internal/world"
)

// Model identifiers used throughout the harness.
const (
	ModelGPT35 = "GPT-3.5"
	ModelGPT4  = "GPT-4"
)

// Method identifiers: the registry names of internal/answer, capitalised
// as the paper's tables print them (answer.New is case-insensitive).
const (
	MethodToG    = "ToG"
	MethodIO     = "IO"
	MethodCoT    = "CoT"
	MethodSC     = "SC"
	MethodRAG    = "RAG"
	MethodOurs   = "Ours"
	MethodOursGp = "Ours-Gp" // ablation: answer from the raw pseudo-graph
)

// EnvConfig sizes the environment.
type EnvConfig struct {
	WorldSeed int64
	World     world.Config
	Data      datasets.Config
	Core      core.Config
	// Workers is the per-cell evaluation parallelism (answer.Batch
	// concurrency).
	Workers int
	// Cache configures the serving-layer answer cache every Answerer is
	// wrapped with; Size <= 0 (the default) leaves caching off so
	// experiment cells always measure real pipeline runs.
	Cache serve.CacheConfig
	// Substrate sizes the live substrate managers (vector-index shard
	// size, auto-compaction threshold); the zero value uses the package
	// defaults with auto-compaction off.
	Substrate substrate.Config
	// LLMConcurrency bounds in-flight LLM calls across the whole
	// environment with the shared scheduler (interactive traffic preempts
	// batch work when saturated); <= 0 leaves admission unbounded — bench
	// cells then measure raw method cost, not queueing.
	LLMConcurrency int
	// Trace, when set, records every request that flows through an
	// Answerer — bench cells and serving traffic alike — into the store
	// (question, answer, usage, stage spans, substrate epoch, cache-hit
	// flag). nil leaves tracing off.
	Trace trace.Store
	// Prompts is the versioned prompt registry every answerer renders
	// from; nil gives the environment its own registry over the embedded
	// defaults. The active version set's fingerprint joins the cache/
	// singleflight scope exactly like the substrate epoch, so a hot
	// reload that changes any prompt invalidates cached answers.
	Prompts *prompts.Registry
}

// DefaultEnvConfig returns the paper-scale environment.
func DefaultEnvConfig() EnvConfig {
	return EnvConfig{
		WorldSeed: 42,
		World:     world.DefaultConfig(),
		Data:      datasets.DefaultConfig(),
		Core:      core.DefaultConfig(),
		Workers:   8,
	}
}

// QuickEnvConfig returns a small environment for unit tests.
func QuickEnvConfig() EnvConfig {
	wc := world.DefaultConfig()
	wc.People = 150
	wc.Cities = 60
	wc.Works = 100
	wc.Companies = 40
	wc.Universities = 25
	cfg := DefaultEnvConfig()
	cfg.World = wc
	cfg.Data = datasets.Config{Seed: 7, SimpleN: 60, QALDN: 40, NatureN: 20,
		TemporalN: 12, AggregationN: 12, AdversarialN: 8, NoisyN: 12}
	return cfg
}

// Env is the assembled experiment environment.
type Env struct {
	Cfg   EnvConfig
	World *world.World
	Suite *datasets.Suite
	Enc   *embed.Encoder
	// Stores holds the boot-time base store per source. Live state —
	// ingested triples, compacted bases — lives in Substrates; tools that
	// only inspect the seeded KG keep using Stores.
	Stores map[kg.Source]*kg.Store
	// Indexes holds each source's boot-snapshot sharded index (a
	// consistent view of Stores). Like Stores, it does not follow ingests.
	Indexes map[kg.Source]vecstore.Searcher
	// Substrates owns the live snapshot chain per source: every Answerer
	// resolves its (store, index) through these, so ingests and hot swaps
	// are visible to serving traffic immediately.
	Substrates map[kg.Source]*substrate.Manager
	Models     map[string]*llm.SimLM
	// Scheduler is the shared LLM admission controller (nil when
	// LLMConcurrency is unbounded); Clients are the per-model serving
	// clients every pipeline and answerer routes Complete through — the
	// sim models wrapped by the scheduler when one is configured.
	Scheduler *llm.Scheduler
	Clients   map[string]llm.Client

	// Cache is the shared answer cache (nil when EnvConfig.Cache is off);
	// Metrics collects per-method serving metrics for every request that
	// goes through Answerer, bench cells included.
	Cache   *serve.Cache
	Metrics *serve.Collector
	// Prompts is the environment's versioned prompt registry (never nil
	// after NewEnv); hot reloads and A/B pins go through it.
	Prompts *prompts.Registry

	pipeMu    sync.Mutex
	pipelines map[string]cachedPipeline

	ansMu     sync.Mutex
	answerers map[string]answer.Answerer
	flights   *serve.Group
}

// NewEnv builds the environment deterministically.
func NewEnv(cfg EnvConfig) (*Env, error) {
	cfg.World.Seed = cfg.WorldSeed
	w, err := world.Generate(cfg.World)
	if err != nil {
		return nil, fmt.Errorf("bench: world: %w", err)
	}
	suite, err := datasets.Build(w, cfg.Data)
	if err != nil {
		return nil, fmt.Errorf("bench: datasets: %w", err)
	}
	enc := embed.NewEncoder()
	stores := map[kg.Source]*kg.Store{
		kg.SourceWikidata: world.WikidataSchema().Render(w),
		kg.SourceFreebase: world.FreebaseSchema().Render(w),
	}
	substrates := map[kg.Source]*substrate.Manager{}
	indexes := map[kg.Source]vecstore.Searcher{}
	for src, st := range stores {
		// Recover is NewManager when EnvConfig.Substrate.Durability is off
		// (the default); with a data dir set it restores checkpoint + WAL
		// state from a previous run before serving.
		mgr, err := substrate.Recover(enc, st, cfg.Substrate)
		if err != nil {
			return nil, fmt.Errorf("bench: substrate %s: %w", src, err)
		}
		substrates[src] = mgr
		indexes[src] = mgr.Current().Index
	}
	models := map[string]*llm.SimLM{
		ModelGPT35: llm.NewSim(w, llm.GPT35Params(), cfg.WorldSeed),
		ModelGPT4:  llm.NewSim(w, llm.GPT4Params(), cfg.WorldSeed),
	}
	var sched *llm.Scheduler
	if cfg.LLMConcurrency > 0 {
		sched = llm.NewScheduler(llm.SchedulerConfig{Concurrency: cfg.LLMConcurrency})
	}
	clients := make(map[string]llm.Client, len(models))
	for name, m := range models {
		clients[name] = sched.Wrap(m) // nil scheduler wraps to the model itself
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Core.Memo == nil {
		// One embedding memo for the whole environment: text -> vector is
		// encoder-level, so every pipeline and answerer across models and
		// KG sources can share it.
		cfg.Core.Memo = core.NewMemo(enc, 0)
	}
	if cfg.Prompts == nil {
		cfg.Prompts = prompts.NewRegistry()
	}
	cfg.Core.Prompts = cfg.Prompts
	return &Env{
		Cfg:        cfg,
		World:      w,
		Suite:      suite,
		Enc:        enc,
		Stores:     stores,
		Indexes:    indexes,
		Substrates: substrates,
		Models:     models,
		Scheduler:  sched,
		Clients:    clients,
		Cache:      serve.NewCache(cfg.Cache), // nil when Size <= 0
		Metrics:    serve.NewCollector(),
		Prompts:    cfg.Prompts,
		pipelines:  map[string]cachedPipeline{},
		answerers:  map[string]answer.Answerer{},
		flights:    serve.NewGroup(),
	}, nil
}

// Pipeline returns (building on demand) the PG&AKV pipeline for a model
// and KG source — the trace-level entry point for tools that inspect
// intermediate artefacts (cmd/failures, the micro-benchmarks). The
// pipeline is bound to the substrate's current snapshot: a pipeline
// requested after an ingest or compaction is rebuilt over the fresh view
// (replacing the cached one, so the map stays bounded at one entry per
// model/source) while in-flight holders keep their consistent snapshot.
func (e *Env) Pipeline(model string, src kg.Source) (*core.Pipeline, error) {
	mgr, ok := e.Substrates[src]
	if !ok {
		return nil, fmt.Errorf("bench: no substrate for source %q", src)
	}
	key := model + "/" + src.String()
	e.pipeMu.Lock()
	defer e.pipeMu.Unlock()
	// Load the snapshot under pipeMu so a swap between the epoch check
	// and the cache write cannot replace a newer cached pipeline with one
	// built over an older snapshot.
	snap := mgr.Current()
	if c, ok := e.pipelines[key]; ok && c.epoch == snap.Epoch {
		return c.pipeline, nil
	}
	m, ok := e.Clients[model]
	if !ok {
		return nil, fmt.Errorf("bench: unknown model %q", model)
	}
	p, err := core.New(m, snap.Store, snap.Index, e.Cfg.Core)
	if err != nil {
		return nil, err
	}
	e.pipelines[key] = cachedPipeline{epoch: snap.Epoch, pipeline: p}
	return p, nil
}

// Answerer returns (building and caching on demand) the registry method
// bound to this environment's substrates for a model and KG source,
// wrapped in the serving middleware stack: metrics always, then the
// answer cache and singleflight dedup when EnvConfig.Cache enables them.
func (e *Env) Answerer(method, model string, src kg.Source) (answer.Answerer, error) {
	key := strings.ToLower(method) + "/" + model + "/" + src.String()
	e.ansMu.Lock()
	defer e.ansMu.Unlock()
	if a, ok := e.answerers[key]; ok {
		return a, nil
	}
	m, ok := e.Clients[model]
	if !ok {
		return nil, fmt.Errorf("bench: unknown model %q", model)
	}
	mgr, ok := e.Substrates[src]
	if !ok {
		// Guard before the Deps assignment: a nil *substrate.Manager in
		// the Substrate interface field would be non-nil to the registry's
		// validation and panic at first Resolve.
		return nil, fmt.Errorf("bench: no substrate for source %q", src)
	}
	a, err := answer.New(method, answer.Deps{
		Client:    m,
		Substrate: mgr,
		Encoder:   e.Enc,
		Prompts:   e.Prompts,
	}, answer.WithCoreConfig(e.Cfg.Core), answer.WithModelLabel(model))
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	// The cache and singleflight group are shared across every answerer
	// this environment hands out; the (model, source, epoch, prompt-set)
	// scope keeps identical questions against different substrates from
	// colliding and makes every hot swap — of the substrate or of the
	// active prompt versions — an implicit cache invalidation: entries
	// keyed under an older epoch or prompt fingerprint can never be
	// served again.
	prefix := model + "/" + src.String() + "@"
	scope := func() string {
		return prefix + strconv.FormatUint(mgr.Epoch(), 10) + "#" + e.Prompts.Fingerprint()
	}
	mws := []serve.Middleware{serve.WithMetrics(e.Metrics)}
	if e.Cfg.Trace != nil {
		// Outside the cache and singleflight so each record captures what
		// the stack did with the request (hit, shared) plus the epoch.
		mws = append(mws, serve.WithTrace(e.Cfg.Trace, src.String()))
	}
	if e.Cache != nil {
		mws = append(mws, serve.WithCache(e.Cache, scope), serve.WithSingleflight(e.flights, scope))
	}
	a = serve.Stack(a, mws...)
	e.answerers[key] = a
	return a, nil
}

// Close shuts the environment's substrate managers down: background
// fsync/checkpoint loops stop and WALs are flushed and closed. Only
// meaningful for durable environments, but always safe to call.
func (e *Env) Close() error {
	var first error
	for _, mgr := range e.Substrates {
		if err := mgr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SubstrateStats reports each source's live substrate summary.
func (e *Env) SubstrateStats() map[string]substrate.Stats {
	out := make(map[string]substrate.Stats, len(e.Substrates))
	for src, mgr := range e.Substrates {
		out[src.String()] = mgr.Stats()
	}
	return out
}

// cachedPipeline is one Pipeline entry pinned to the snapshot epoch it
// was built over.
type cachedPipeline struct {
	epoch    uint64
	pipeline *core.Pipeline
}

// DedupStats reports the environment's singleflight counters.
func (e *Env) DedupStats() serve.GroupStats { return e.flights.Stats() }

// SchedulerStats reports the shared LLM scheduler's depth/wait counters
// (zeros when admission is unbounded).
func (e *Env) SchedulerStats() llm.SchedulerStats { return e.Scheduler.Stats() }

// TraceStats reports the configured trace store's counters (zeros when
// tracing is off).
func (e *Env) TraceStats() trace.StoreStats {
	if e.Cfg.Trace == nil {
		return trace.StoreStats{}
	}
	return e.Cfg.Trace.Stats()
}

// MemoStats reports the environment-wide embedding memo counters.
func (e *Env) MemoStats() core.MemoStats { return e.Cfg.Core.Memo.Stats() }

// Cell is one (method, model, dataset, source) evaluation result.
type Cell struct {
	Method  string
	Model   string
	Dataset string
	Source  kg.Source
	// Score is Hit@1 or ROUGE-L-f1 as a percentage.
	Score float64
	N     int
}

// query maps a dataset question onto the unified request shape.
func query(method, model string, q qa.Question) answer.Query {
	anchors := []string{q.Intent.Subject}
	if q.Intent.Subject2 != "" {
		anchors = append(anchors, q.Intent.Subject2)
	}
	return answer.Query{
		Text:    q.Text,
		Method:  method,
		Model:   model,
		Open:    q.Open(),
		Anchors: anchors,
	}
}

// score evaluates one answer against the question's gold material.
func score(q qa.Question, answer string) float64 {
	if q.Open() {
		return metrics.RougeLMulti(answer, q.Refs)
	}
	return metrics.Hit1(answer, q.Golds)
}

// Run evaluates a method×model over a dataset against the given KG source
// and returns the aggregate cell. The context bounds the whole cell:
// cancellation aborts in-flight questions and skips the rest.
func (e *Env) Run(ctx context.Context, method, model string, ds *qa.Dataset, src kg.Source) (Cell, error) {
	ans, err := e.Answerer(method, model, src)
	if err != nil {
		return Cell{}, err
	}
	queries := make([]answer.Query, len(ds.Questions))
	for i, q := range ds.Questions {
		queries[i] = query(method, model, q)
	}
	items := answer.Batch(ctx, ans, queries, answer.Concurrency(e.Cfg.Workers))
	if err := answer.FirstError(items); err != nil {
		return Cell{}, fmt.Errorf("bench: %s/%s on %s: %w", method, model, ds.Name, err)
	}
	scores := make([]float64, len(items))
	for i, item := range items {
		scores[i] = score(ds.Questions[i], item.Result.Answer)
	}
	return Cell{
		Method:  method,
		Model:   model,
		Dataset: ds.Name,
		Source:  src,
		Score:   metrics.Mean(scores) * 100,
		N:       len(scores),
	}, nil
}

// DefaultSource returns the KG source a dataset is evaluated against by
// default: SimpleQuestions is Freebase-based in the paper, the others use
// Wikidata.
func DefaultSource(datasetName string) kg.Source {
	if datasetName == "SimpleQuestions" {
		return kg.SourceFreebase
	}
	return kg.SourceWikidata
}
