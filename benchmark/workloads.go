package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/kg"
	"repro/internal/serve"
)

// workload declares one named traffic mix and the topology it runs on.
// Every load-generating client waits for each reply before sending the
// next request (closed loop: the eval harness, answer.Batch callers and
// the router itself behave so); the ingest writer is paced on a fixed
// schedule and timed from each batch's due time.
type workload struct {
	Name string
	// Why is the reason the workload exists, copied into BENCHMARK.json.
	Why string
	// gated workloads are the ones BENCHMARK.json lists: a harness runs
	// them and holds every end-to-end metric to its bound on each. An
	// ungated workload runs with the rest of the set but could not hold the
	// bounds on this box (README, "Bounds").
	gated bool

	// The single (or primary) node: cacheOff runs it with -cache-size 0,
	// admission with the never-refusing limiter and in-flight gate,
	// durable with a fresh -data-dir (fsyncAlways: -fsync always and the
	// default compaction threshold spelled out); replicas > 0 adds that
	// many -replica-of nodes and a pgakvlb in front.
	cacheOff    bool
	admission   bool
	durable     bool
	fsyncAlways bool
	replicas    int

	// readers closed-loop clients draw questions from the full suite —
	// zipf(1.3) by suite rank, or uniformly — alternating through kgs.
	// identities gives each its own X-API-Key.
	readers    int
	zipf       bool
	kgs        []kg.Source
	identities bool

	// batches(loadSeconds) ingest batches of batchSize fresh wikidata
	// triples are spread evenly over the timed phase's load segments by one
	// writer; ryw follows each acknowledged batch with one X-Min-Epoch
	// answer. nil = no writer.
	batches   func(loadSeconds float64) int
	batchSize int
	ryw       bool

	// traceIngestEvery is how many reads separate two ingests in the
	// traced pass's fixed sequence (0 = no ingests).
	traceIngestEvery int
}

// static reports whether the substrate never changes, which makes every
// answer comparable to the in-process reference.
func (w *workload) static() bool { return w.batches == nil }

// admissionConfig is the front door of an admission workload: the limiter
// and the in-flight gate both execute on every request and, with two
// clients, must never refuse one.
var admissionConfig = serve.AdmissionConfig{
	Limiter:     serve.LimiterConfig{Rate: 1_000_000, Burst: 1024},
	MaxInFlight: 8,
	MaxQueue:    32,
}

// nodeFlags renders the primary's configuration as pgakvd flags.
func (w *workload) nodeFlags() []string {
	var f []string
	if w.cacheOff {
		f = append(f, "-cache-size", "0")
	}
	if w.admission {
		a := admissionConfig
		f = append(f, "-max-inflight", strconv.Itoa(a.MaxInFlight), "-max-queue", strconv.Itoa(a.MaxQueue),
			"-rate", strconv.FormatFloat(a.Limiter.Rate, 'f', -1, 64), "-burst", strconv.Itoa(a.Limiter.Burst))
	}
	if w.fsyncAlways {
		f = append(f, "-fsync", "always", "-compact-threshold", "2048")
	}
	return f
}

// ingestSource is the KG every writer ingests into.
const ingestSource = kg.SourceWikidata

var workloads = []*workload{
	{
		Name:     "cold_answer",
		gated:    true,
		Why:      "cache off, uniform questions over both KGs: the pipeline (core, vecstore, embed, kg, llm, cypher, prompts under exec) does all the work and the serve cache none",
		cacheOff: true,
		readers:  2,
		kgs:      kgSources,
	},
	{
		Name:       "hot_zipf",
		gated:      true,
		Why:        "cache holds the whole key set and is warm: HTTP, admission, QueryKey, serve.Cache and the collector do all the work and the pipeline none; bypasses every pipeline optimisation",
		admission:  true,
		readers:    2,
		zipf:       true,
		kgs:        kgSources,
		identities: true,
	},
	{
		Name:             "mixed_ingest",
		gated:            true,
		Why:              "one zipf reader beside a paced fsync=always writer: WAL append, delta publish, auto-compaction and checkpoints run while every ingest invalidates the reader's wikidata cache scope",
		durable:          true,
		fsyncAlways:      true,
		readers:          1,
		zipf:             true,
		kgs:              kgSources,
		batches:          func(float64) int { return 300 },
		batchSize:        32,
		traceIngestEvery: 25,
	},
	{
		Name:             "routed_reads",
		Why:              "primary, two replicas and pgakvlb: only here do WAL shipping, ApplyReplicated, the router hop and X-Min-Epoch read-your-writes routing do work; a single-node change must not move it",
		durable:          true,
		replicas:         2,
		readers:          1,
		zipf:             true,
		kgs:              kgSources,
		batches:          func(loadSeconds float64) int { return int(5 * loadSeconds) },
		batchSize:        16,
		ryw:              true,
		traceIngestEvery: 50,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// topology is one launched set of server processes.
type topology struct {
	primary  *proc
	replicas []*proc
	lb       *proc
	// primaryArgs and primaryPort relaunch the primary on the same data
	// directory after the kill -9 check.
	primaryArgs []string
	primaryPort int
}

// entry is the URL clients send to: the router when there is one.
func (t *topology) entry() string {
	if t.lb != nil {
		return t.lb.url
	}
	return t.primary.url
}

// servers are the pgakvd/pgakvlb processes whose CPU and memory count.
func (t *topology) servers() []*proc {
	out := append([]*proc{t.primary}, t.replicas...)
	if t.lb != nil {
		out = append(out, t.lb)
	}
	return out
}

// nodes are the pgakvd processes (the ones that serve /v1/metrics).
func (t *topology) nodes() []*proc { return append([]*proc{t.primary}, t.replicas...) }

// teardown kills every process of the topology. Nothing is drained: the
// data directories are thrown away, and a primary asked to drain would
// wait out its replicas' open streams.
func (t *topology) teardown() {
	for _, p := range t.servers() {
		if p != nil {
			p.kill()
		}
	}
}

// launch starts the workload's topology on free loopback ports and
// returns once every process is ready (replicas: caught up).
func (w *workload) launch(r *rig) (*topology, error) {
	t := &topology{}
	if err := w.start(r, t); err != nil {
		t.teardown()
		return nil, err
	}
	return t, nil
}

func (w *workload) start(r *rig, t *topology) (err error) {
	t.primaryArgs = w.nodeFlags()
	if w.durable {
		dir, err := r.tempDir(w.Name + "-primary")
		if err != nil {
			return err
		}
		t.primaryArgs = append(t.primaryArgs, "-data-dir", dir)
	}
	if t.primaryPort, err = freePort(); err != nil {
		return err
	}
	if t.primary, err = r.startServer(w.Name+"-primary", "pgakvd", t.primaryPort, healthy, t.primaryArgs...); err != nil {
		return err
	}
	if w.replicas == 0 {
		return nil
	}
	var urls []string
	for i := 0; i < w.replicas; i++ {
		name := fmt.Sprintf("%s-replica%d", w.Name, i+1)
		dir, err := r.tempDir(name)
		if err != nil {
			return err
		}
		port, err := freePort()
		if err != nil {
			return err
		}
		p, err := r.startServer(name, "pgakvd", port, caughtUp, "-data-dir", dir, "-replica-of", t.primary.url)
		if err != nil {
			return err
		}
		t.replicas = append(t.replicas, p)
		urls = append(urls, p.url)
	}
	port, err := freePort()
	if err != nil {
		return err
	}
	t.lb, err = r.startServer(w.Name+"-lb", "pgakvlb", port, healthy, "-primary", t.primary.url, "-replicas", strings.Join(urls, ","))
	return err
}
