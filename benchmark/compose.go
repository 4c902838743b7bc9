package main

import (
	"fmt"
	"strconv"

	"repro/internal/answer"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/qa"
	"repro/internal/serve"
	"repro/internal/substrate"
	"repro/internal/world"
)

// worldSeed is the seed of the world every server and every in-process
// composition runs: pgakvd's default. It is never the workload seed.
const worldSeed = 42

// method and model are what every benchmark request asks for — the paper's
// method on the server's default model.
const (
	benchMethod = "ours"
	benchModel  = bench.ModelGPT35
)

var kgSources = []kg.Source{kg.SourceWikidata, kg.SourceFreebase}

// inproc is the default world rebuilt inside the benchmark process: the
// source of the question pool, of the reference answers the servers'
// replies are checked against, and of the traced pass.
type inproc struct {
	world *world.World
	pool  []qa.Question
	// bodies holds the pre-rendered /v1/answer request of every (KG, pool
	// question), so the generator's own CPU per request stays small.
	bodies  [][][]byte
	enc     *embed.Encoder
	prompts *prompts.Registry
}

func newInproc() (*inproc, error) {
	cfg := bench.DefaultEnvConfig()
	cfg.World.Seed = worldSeed
	w, err := world.Generate(cfg.World)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	suite, err := datasets.Build(w, cfg.Data)
	if err != nil {
		return nil, fmt.Errorf("datasets: %w", err)
	}
	ip := &inproc{world: w, pool: pool(suite.Datasets()), enc: embed.NewEncoder(), prompts: prompts.NewRegistry()}
	ip.bodies = make([][][]byte, len(kgSources))
	for k, src := range kgSources {
		for _, q := range ip.pool {
			ip.bodies[k] = append(ip.bodies[k], answerBody(q.Text, src))
		}
	}
	return ip, nil
}

// seedStore renders the world in one KG schema — the store a fresh server
// boots from.
func (ip *inproc) seedStore(src kg.Source) (*kg.Store, error) {
	schema, err := world.SchemaFor(src)
	if err != nil {
		return nil, err
	}
	return schema.Render(ip.world), nil
}

// hooks are the points where the traced pass wraps timing decorators
// around a node's layers; a nil hook leaves the layer bare.
type hooks struct {
	client    func(llm.Client) llm.Client
	substrate func(answer.Substrate) answer.Substrate
	inner     func(answer.Answerer) answer.Answerer // around the registry method, under the serve stack
	outer     func(answer.Answerer) answer.Answerer // around the serve stack
}

// nodeConfig sizes an in-process node like the pgakvd flags size a server.
type nodeConfig struct {
	cacheSize int
	substrate substrate.Config
}

// node is one in-process serving node: the composition bench.Env hands
// pgakvd (scheduler-wrapped sim model, substrate managers, shared embed
// memo, metrics → cache → singleflight around the registry method), built
// here so the traced pass can wrap each layer.
type node struct {
	mgrs      map[kg.Source]*substrate.Manager
	answerers map[kg.Source]answer.Answerer
}

func (ip *inproc) newNode(cfg nodeConfig, h hooks) (*node, error) {
	n := &node{mgrs: map[kg.Source]*substrate.Manager{}, answerers: map[kg.Source]answer.Answerer{}}
	cache := serve.NewCache(serve.CacheConfig{Size: cfg.cacheSize}) // nil when the size is 0
	collector := serve.NewCollector()
	sched := llm.NewScheduler(llm.SchedulerConfig{Concurrency: 32})
	var client llm.Client = sched.Wrap(llm.NewSim(ip.world, llm.GPT35Params(), worldSeed))
	if h.client != nil {
		client = h.client(client)
	}
	coreCfg := core.DefaultConfig()
	coreCfg.Memo = core.NewMemo(ip.enc, 0)
	coreCfg.Prompts = ip.prompts
	flights := serve.NewGroup()
	for _, src := range kgSources {
		seed, err := ip.seedStore(src)
		if err != nil {
			n.close()
			return nil, err
		}
		mgr, err := substrate.Recover(ip.enc, seed, cfg.substrate)
		if err != nil {
			n.close()
			return nil, fmt.Errorf("substrate %s: %w", src, err)
		}
		n.mgrs[src] = mgr
		var sub answer.Substrate = mgr
		if h.substrate != nil {
			sub = h.substrate(sub)
		}
		a, err := answer.New(benchMethod, answer.Deps{Client: client, Substrate: sub, Encoder: ip.enc, Prompts: ip.prompts},
			answer.WithCoreConfig(coreCfg), answer.WithModelLabel(benchModel))
		if err != nil {
			n.close()
			return nil, err
		}
		if h.inner != nil {
			a = h.inner(a)
		}
		prefix := benchModel + "/" + src.String() + "@"
		scope := func() string {
			return prefix + strconv.FormatUint(mgr.Epoch(), 10) + "#" + ip.prompts.Fingerprint()
		}
		mws := []serve.Middleware{serve.WithMetrics(collector)}
		if cache != nil {
			mws = append(mws, serve.WithCache(cache, scope), serve.WithSingleflight(flights, scope))
		}
		a = serve.Stack(a, mws...)
		if h.outer != nil {
			a = h.outer(a)
		}
		n.answerers[src] = a
	}
	return n, nil
}

func (n *node) close() {
	for _, mgr := range n.mgrs {
		mgr.Close()
	}
}

// query is the answer.Query pgakvd builds from a benchmark request body.
func query(text string) answer.Query {
	return answer.Query{Text: text, Method: benchMethod, Model: benchModel}
}
