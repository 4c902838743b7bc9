// Package node is the serving composition: one synthetic world rendered
// into a seed store per KG source, each behind a live substrate manager;
// the simulated models behind the shared LLM scheduler; the prompt
// registry; and the metrics → trace → cache → singleflight stack around
// every registry method. Below the answer cache no embedding or score
// outlives a request: every query is encoded and scored afresh. A method
// runs on a node only through Answerer. cmd/pgakvd serves a Node
// directly, internal/replay re-runs suites on one, and bench.Env is a
// Node plus the question datasets — nothing dataset-shaped lives here.
package node

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/serve"
	"repro/internal/substrate"
	"repro/internal/trace"
	"repro/internal/world"
)

// Model identifiers: the labels results, cache scopes and metrics carry.
const (
	ModelGPT35 = "GPT-3.5"
	ModelGPT4  = "GPT-4"
)

// ResolveModel maps a user-facing model label (case-insensitive; empty
// means GPT-3.5) onto a model identifier. Any other label is an invalid
// query.
func ResolveModel(label string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(label)) {
	case "", "gpt3.5", "gpt-3.5", "gpt35":
		return ModelGPT35, nil
	case "gpt4", "gpt-4":
		return ModelGPT4, nil
	default:
		return "", &answer.InvalidQueryError{Reason: fmt.Sprintf("unknown model %q (want gpt3.5 or gpt4)", label)}
	}
}

// Sources lists the KG sources every node serves, in the one order boot
// logs, recovery, replication and /v1/methods all use.
var Sources = []kg.Source{kg.SourceWikidata, kg.SourceFreebase}

// Config sizes a node.
type Config struct {
	WorldSeed int64
	World     world.Config
	Core      core.Config
	// Cache configures the serving-layer answer cache every Answerer is
	// wrapped with; Size <= 0 (the default) leaves caching off so
	// experiment cells always measure real pipeline runs.
	Cache serve.CacheConfig
	// Substrate sizes the live substrate managers (vector-index shard
	// size, auto-compaction threshold); the zero value uses the package
	// defaults with auto-compaction off.
	Substrate substrate.Config
	// LLMConcurrency bounds in-flight LLM calls across the whole node
	// with the shared scheduler (first come, first served when
	// saturated); <= 0 leaves admission unbounded — bench cells then
	// measure raw method cost, not queueing.
	LLMConcurrency int
	// Trace, when set, records every request that flows through an
	// Answerer — bench cells and serving traffic alike — into the store
	// (question, answer, usage, stage spans, substrate epoch, cache-hit
	// flag). nil leaves tracing off.
	Trace *trace.FileStore
	// Prompts is the versioned prompt registry every answerer renders
	// from; nil gives the node its own registry over the embedded
	// defaults. The active version set's fingerprint joins the cache/
	// singleflight scope exactly like the substrate epoch, and a cached
	// answer revalidates only under the fingerprint it rendered with.
	Prompts *prompts.Registry
}

// ConfigFor returns the paper-scale node config, or with quick the small
// world that unit tests and -quick servers start from.
func ConfigFor(quick bool) Config {
	cfg := Config{WorldSeed: 42, World: world.DefaultConfig(), Core: core.DefaultConfig()}
	if quick {
		cfg.World.People = 150
		cfg.World.Cities = 60
		cfg.World.Works = 100
		cfg.World.Companies = 40
		cfg.World.Universities = 25
	}
	return cfg
}

// Node is one assembled serving node.
type Node struct {
	// Cfg is the config the node was built from, with the default New
	// filled in (the prompt registry) made explicit.
	Cfg   Config
	World *world.World
	Enc   *embed.Encoder
	// Substrates owns the live snapshot chain per source: every Answerer
	// resolves its (store, index) through these, so ingests and hot swaps
	// are visible to serving traffic immediately.
	Substrates map[kg.Source]*substrate.Manager
	Models     map[string]*llm.SimLM
	// Scheduler is the shared LLM admission controller (nil when
	// LLMConcurrency is unbounded); Clients are the per-model serving
	// clients every answerer routes Complete through — the sim models
	// wrapped by the scheduler when one is configured.
	Scheduler *llm.Scheduler
	Clients   map[string]llm.Client

	// Cache is the shared answer cache (nil when Config.Cache is off);
	// Metrics collects per-method serving metrics for every request that
	// goes through Answerer, bench cells included.
	Cache   *serve.Cache
	Metrics *serve.Collector
	// Prompts is the node's versioned prompt registry (never nil after
	// New); hot reloads and A/B pins go through it.
	Prompts *prompts.Registry

	ansMu     sync.Mutex
	answerers map[answererKey]answer.Answerer
	flights   *serve.Group
}

// answererKey names one bound answerer: the lowered method label, the
// model and the KG source.
type answererKey struct {
	method, model string
	src           kg.Source
}

// New builds the node deterministically.
func New(cfg Config) (*Node, error) {
	cfg.World.Seed = cfg.WorldSeed
	w, err := world.Generate(cfg.World)
	if err != nil {
		return nil, fmt.Errorf("node: world: %w", err)
	}
	n := &Node{
		World:      w,
		Enc:        embed.NewEncoder(),
		Substrates: map[kg.Source]*substrate.Manager{},
		Cache:      serve.NewCache(cfg.Cache), // nil when Size <= 0
		Metrics:    serve.NewCollector(),
		answerers:  map[answererKey]answer.Answerer{},
		flights:    serve.NewGroup(),
	}
	for _, src := range Sources {
		schema, err := world.SchemaFor(src)
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("node: %w", err)
		}
		// Recover is NewManager when Config.Substrate.Durability is off
		// (the default); with a data dir set it restores checkpoint + WAL
		// state from a previous run before serving.
		mgr, err := substrate.Recover(n.Enc, schema.Render(w), cfg.Substrate)
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("node: substrate %s: %w", src, err)
		}
		n.Substrates[src] = mgr
	}
	n.Models = map[string]*llm.SimLM{
		ModelGPT35: llm.NewSim(w, llm.GPT35Params(), cfg.WorldSeed),
		ModelGPT4:  llm.NewSim(w, llm.GPT4Params(), cfg.WorldSeed),
	}
	if cfg.LLMConcurrency > 0 {
		n.Scheduler = llm.NewScheduler(llm.SchedulerConfig{Concurrency: cfg.LLMConcurrency})
	}
	n.Clients = make(map[string]llm.Client, len(n.Models))
	for name, m := range n.Models {
		n.Clients[name] = n.Scheduler.Wrap(m) // nil scheduler wraps to the model itself
	}
	if cfg.Prompts == nil {
		cfg.Prompts = prompts.NewRegistry()
	}
	n.Prompts = cfg.Prompts
	n.Cfg = cfg
	return n, nil
}

// Answerer returns (building and caching on demand) the registry method
// bound to this node's substrates for a model and KG source, wrapped in
// the serving middleware stack: metrics always, then the answer cache
// and singleflight dedup when Config.Cache enables them, with the
// request deadline's layer between them (innermost without a cache).
func (n *Node) Answerer(method, model string, src kg.Source) (answer.Answerer, error) {
	key := answererKey{strings.ToLower(method), model, src}
	n.ansMu.Lock()
	defer n.ansMu.Unlock()
	if a, ok := n.answerers[key]; ok {
		return a, nil
	}
	m, ok := n.Clients[model]
	if !ok {
		return nil, fmt.Errorf("node: unknown model %q", model)
	}
	mgr, ok := n.Substrates[src]
	if !ok {
		// Guard before the Deps assignment: a nil *substrate.Manager in
		// the Substrate interface field would be non-nil to the registry's
		// validation and panic at first Resolve.
		return nil, fmt.Errorf("node: no substrate for source %q", src)
	}
	a, err := answer.New(method, answer.Deps{
		Client:    m,
		Substrate: mgr,
		Encoder:   n.Enc,
		Prompts:   n.Prompts,
	}, answer.WithCoreConfig(n.Cfg.Core), answer.WithModelLabel(model))
	if err != nil {
		return nil, err
	}
	// The cache and singleflight group are shared across every answerer
	// this node hands out; the (model, source, epoch, prompt-set) scope
	// keeps identical questions against different substrates from
	// coalescing, and every hot swap — of the substrate or of the active
	// prompt versions — moves it, so an entry filled before the swap is
	// served only once its read log replays exactly.
	scope := n.scopeFunc(model+"/"+src.String()+"@", mgr)
	mws := []serve.Middleware{serve.WithMetrics(n.Metrics)}
	if n.Cfg.Trace != nil {
		// Outside the cache and singleflight so each record captures what
		// the stack did with the request (hit, shared) plus the epoch.
		mws = append(mws, serve.WithTrace(n.Cfg.Trace, src.String()))
	}
	// A request's own deadline (serve.Info.Deadline) is armed below the
	// cache, so a hit arms no timer; a run and a singleflight wait are
	// bounded by it.
	if n.Cache != nil {
		mws = append(mws, serve.WithCache(n.Cache, scope), serve.WithDeadline(), serve.WithSingleflight(n.flights, scope))
	} else {
		mws = append(mws, serve.WithDeadline())
	}
	a = serve.Stack(a, mws...)
	n.answerers[key] = a
	return a, nil
}

// scopeFunc returns the cache and singleflight scope of one binding:
// prefix, the substrate's epoch and the active prompt fingerprint
// ("GPT-4/wikidata@12#answer-graph@1,..."). The string is built only when
// the epoch or the prompt view moves; between two moves every request
// reads the one it last built.
func (n *Node) scopeFunc(prefix string, mgr *substrate.Manager) serve.ScopeFunc {
	type built struct {
		epoch uint64
		view  *prompts.View
		scope string
	}
	var last atomic.Pointer[built]
	return func() string {
		epoch, view := mgr.Epoch(), n.Prompts.View()
		if b := last.Load(); b != nil && b.epoch == epoch && b.view == view {
			return b.scope
		}
		b := &built{epoch, view, prefix + strconv.FormatUint(epoch, 10) + "#" + view.Fingerprint()}
		last.Store(b)
		return b.scope
	}
}

// Close shuts the node's substrate managers down: background
// fsync/checkpoint loops stop and WALs are flushed and closed. Only
// meaningful for durable nodes, but always safe to call.
func (n *Node) Close() error {
	var first error
	for _, mgr := range n.Substrates {
		if err := mgr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SubstrateStats reports each source's live substrate summary.
func (n *Node) SubstrateStats() map[string]substrate.Stats {
	out := make(map[string]substrate.Stats, len(n.Substrates))
	for src, mgr := range n.Substrates {
		out[src.String()] = mgr.Stats()
	}
	return out
}

// DedupStats reports the node's singleflight counters.
func (n *Node) DedupStats() serve.GroupStats { return n.flights.Stats() }

// SchedulerStats reports the shared LLM scheduler's depth/wait counters
// (zeros when admission is unbounded).
func (n *Node) SchedulerStats() llm.SchedulerStats { return n.Scheduler.Stats() }

// TraceStats reports the configured trace store's counters (zeros when
// tracing is off).
func (n *Node) TraceStats() trace.StoreStats { return n.Cfg.Trace.Stats() }
