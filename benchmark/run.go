package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/kg"
)

// This file runs one workload against real processes: set-up (launch +
// warm/verify pass), the timed closed-loop phase, the correctness checks,
// and the metrics read from the clients, from /v1/metrics and from /proc.

// opCounts is the outcome tally of one operation type. A 429, any other
// non-200, a transport error or timeout, and a failed check all count as
// failed; refused (429) is the part of failed the server chose.
type opCounts struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Refused   int `json:"refused"`
	Failed    int `json:"failed"`
}

func (c *opCounts) add(o opCounts) {
	c.Attempted += o.Attempted
	c.OK += o.OK
	c.Refused += o.Refused
	c.Failed += o.Failed
}

// runState is everything one workload run shares between its phases.
type runState struct {
	w     *workload
	ip    *inproc
	ref   *reference
	rig   *rig
	opt   runOptions
	chk   *checker
	topo  *topology
	conns []*conn // two connections: readers first, then the writer
	// batches is how many ingest batches the writer posts over the whole
	// timed phase (0 = no writer).
	batches int
}

// verifyResult is the outcome of one warm/verify pass.
type verifyResult struct {
	counts  opCounts
	quality float64
	epochs  map[string]uint64 // KG -> boot epoch seen
}

// warmVerify asks every suite question once per KG in suite order, one KG
// per connection. It warms caches and lazy set-up before timing, checks
// each reply against the reference (no writer has run yet, so every
// workload's substrate is still the seed), and scores quality.
func (rs *runState) warmVerify() verifyResult {
	type kgResult struct {
		counts opCounts
		scores []float64
		epoch  uint64
	}
	results := make([]kgResult, len(kgSources))
	var wg sync.WaitGroup
	for k := range kgSources {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res := &results[k]
			c := rs.conns[k%len(rs.conns)]
			guard := epochGuard{}
			for i, q := range rs.ip.pool {
				res.counts.Attempted++
				rep, err := c.answer(rs.topo.entry(), rs.ip.bodies[k][i], 0)
				switch {
				case err != nil:
					rs.chk.failf("verify %s q%d: %v", kgSources[k], i, err)
				case rep.status == http.StatusTooManyRequests:
					res.counts.Refused++
					rs.chk.failf("verify %s q%d: refused (429)", kgSources[k], i)
				case rep.status != http.StatusOK:
					rs.chk.failf("verify %s q%d: status %d", kgSources[k], i, rep.status)
				case !rs.ref.answers[k][i].matches(rep):
					rs.chk.failf("verify %s q%d: reply %+v differs from reference %+v", kgSources[k], i, rep.wire, rs.ref.answers[k][i])
				case !guard.observe(rs.chk, "verify", rep):
				default:
					res.counts.OK++
					res.scores = append(res.scores, score(q, rep.wire.Answer))
					res.epoch = rep.wire.Epoch
					continue
				}
				res.counts.Failed++
			}
		}(k)
	}
	wg.Wait()
	out := verifyResult{epochs: map[string]uint64{}}
	var scores []float64
	for k, res := range results {
		out.counts.add(res.counts)
		scores = append(scores, res.scores...)
		out.epochs[kgSources[k].String()] = res.epoch
	}
	// Unanswered questions score 0: quality is over the whole suite.
	out.quality = 100 * sum(scores) / float64(len(kgSources)*len(rs.ip.pool))
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// setup launches the topology and runs the warm/verify pass, returning
// the set-up time: launch → end of warm/verify (go build excluded).
func (rs *runState) setup() (float64, verifyResult, error) {
	start := time.Now()
	topo, err := rs.w.launch(rs.rig)
	if err != nil {
		return 0, verifyResult{}, err
	}
	rs.topo = topo
	v := rs.warmVerify()
	return time.Since(start).Seconds(), v, nil
}

// setupControlSlice is the length of the control slices around each set-up.
const setupControlSlice = 400 * time.Millisecond

// setups launches and warms the topology opt.setups times, a control
// slice before and after each, and returns every set-up's time as measured,
// the same divided by the box speed index of the two slices around it, and
// the last warm/verify pass. The last topology stays up.
func (rs *runState) setups() (raw, indexed []float64, verify verifyResult, err error) {
	before, err := rs.rig.control.slice(2, setupControlSlice)
	if err != nil {
		return nil, nil, verify, err
	}
	for i := 0; i < rs.opt.setups; i++ {
		if rs.topo != nil {
			rs.topo.teardown()
		}
		var s float64
		if s, verify, err = rs.setup(); err != nil {
			return nil, nil, verify, err
		}
		after, err := rs.rig.control.slice(2, setupControlSlice)
		if err != nil {
			return nil, nil, verify, err
		}
		raw = append(raw, s)
		indexed = append(indexed, s/speedIndex(before, after))
		before = after
	}
	return raw, indexed, verify, nil
}

// scrapeNodes reads /v1/metrics of every pgakvd of the topology.
func (rs *runState) scrapeNodes() ([]serverMetrics, error) {
	var out []serverMetrics
	for _, p := range rs.topo.nodes() {
		m, err := scrape(p.url)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.name, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// watcher polls every node once a second during a traced run's timed
// phase for the gauges a boundary scrape would miss.
type watcher struct {
	segmentsMax int
	lagMax      uint64
}

func (rs *runState) watch(stop <-chan struct{}, done chan<- watcher) {
	var w watcher
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		w.absorb(rs)
		select {
		case <-stop:
			w.absorb(rs)
			done <- w
			return
		case <-tick.C:
		}
	}
}

func (w *watcher) absorb(rs *runState) {
	nodes, err := rs.scrapeNodes()
	if err != nil {
		return // a missed poll only narrows the max; boundary scrapes still fail loudly
	}
	for _, m := range nodes {
		for _, sub := range m.Substrates {
			w.segmentsMax = max(w.segmentsMax, sub.Shards)
		}
		if m.Replication != nil {
			for _, src := range m.Replication.Sources {
				w.lagMax = max(w.lagMax, src.LagRecords)
			}
		}
	}
}

// workloadResult is one workload's full account.
type workloadResult struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Seconds  int                 `json:"seconds"`
	Correct  bool                `json:"correct"`
	Failures []string            `json:"failures,omitempty"`
	Ops      map[string]opCounts `json:"ops"`
	// Latency carries the full summaries (count, mean, percentiles and the
	// highest percentile the sample supports) behind the latency metrics.
	Latency map[string]summary `json:"latency_ms"`
	// Raw holds the end-to-end times as measured, before they were divided
	// by the box speed index (control.go).
	Raw       values   `json:"raw"`
	EndToEnd  values   `json:"end_to_end,omitempty"`
	PerLayer  values   `json:"per_layer,omitempty"`
	Isolation []string `json:"isolation,omitempty"`
}

func (r *workloadResult) attemptedFailed() (attempted, failed int) {
	for _, c := range r.Ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// runOptions select what one workload run measures.
type runOptions struct {
	seed    int64
	seconds int
	// setups is how many times the topology is launched and warmed; the
	// reported setup_s is the median, the last one is measured on.
	setups int
	// e2e and layers select the end-to-end and the per-layer halves.
	e2e, layers bool
}

// setupRepeats is how many set-ups a run that reports setup_s makes.
const setupRepeats = 3

// phase is everything the timed phase measured.
type phase struct {
	readers []clientStats
	writer  writerStats
	elapsed float64         // seconds of load: the rounds' load segments, control slices excluded
	cpu     procSample      // CPU seconds spent during the load segments
	index   float64         // box speed index over the phase's control slices
	s0, s1  []serverMetrics // boundary scrapes of every node
	watched watcher         // traced runs only
}

// A timed phase is a sequence of rounds: a control slice, then a load
// segment. The control is measured through the whole phase, never more
// than a load segment away from any request it is compared with, and one
// more slice closes the phase.
const (
	roundLoad    = 1500 * time.Millisecond
	roundControl = 500 * time.Millisecond
)

// rounds is how many rounds fit into a phase of the given length.
func rounds(seconds int) int {
	return max(1, int(time.Duration(seconds)*time.Second/(roundLoad+roundControl)))
}

// loadSeconds is how long a phase of the given length generates load for.
func loadSeconds(seconds int) float64 {
	return (time.Duration(rounds(seconds)) * roundLoad).Seconds()
}

// timedPhase runs the workload's clients against the topology that is up.
// Readers and the writer carry their generators, tallies and epoch guards
// from one round's load segment to the next; the servers idle through the
// control slices between them.
func (rs *runState) timedPhase() (*phase, error) {
	w, ph := rs.w, &phase{readers: make([]clientStats, rs.w.readers)}
	var err error
	if ph.s0, err = rs.scrapeNodes(); err != nil {
		return nil, err
	}
	var watchStop chan struct{}
	var watchDone chan watcher
	if rs.opt.layers {
		watchStop, watchDone = make(chan struct{}), make(chan watcher, 1)
		go rs.watch(watchStop, watchDone)
		defer func() {
			close(watchStop)
			ph.watched = <-watchDone
		}()
	}
	gens, guards := make([]*readGen, w.readers), make([]epochGuard, w.readers)
	for i := range ph.readers {
		ph.readers[i] = newClientStats()
		gens[i], guards[i] = newReadGen(rs.opt.seed, i, len(rs.ip.pool), w.zipf, w.kgs), epochGuard{}
	}
	var writerGen *readGen
	if !w.static() {
		writerGen = newReadGen(rs.opt.seed, w.readers, len(rs.ip.pool), true, []kg.Source{ingestSource})
	}
	var controlSamples [][]float64
	control := func() error {
		lat, err := rs.rig.control.slice(w.readers, roundControl)
		controlSamples = append(controlSamples, lat)
		return err
	}
	n, posted := rounds(rs.opt.seconds), 0
	for r := 0; r < n; r++ {
		if err := control(); err != nil {
			return nil, err
		}
		cpu0, err := rs.sampleCPU()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var wg sync.WaitGroup
		for i := range ph.readers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rs.readLoop(rs.conns[i], gens[i], rs.topo.entry(), start.Add(roundLoad), fmt.Sprintf("reader %d", i), &ph.readers[i], guards[i])
			}(i)
		}
		if writerGen != nil {
			batches := rs.batches*(r+1)/n - posted
			wg.Add(1)
			go func(first int) {
				defer wg.Done()
				rs.writeLoop(rs.conns[len(rs.conns)-1], writerGen, rs.topo.entry(), start, roundLoad, first, batches, &ph.writer)
			}(posted)
			posted += batches
		}
		wg.Wait()
		ph.elapsed += time.Since(start).Seconds()
		cpu1, err := rs.sampleCPU()
		if err != nil {
			return nil, err
		}
		ph.cpu.servers += cpu1.servers - cpu0.servers
		ph.cpu.loadgen += cpu1.loadgen - cpu0.loadgen
	}
	if err := control(); err != nil {
		return nil, err
	}
	ph.index = speedIndex(controlSamples...)
	ph.s1, err = rs.scrapeNodes()
	return ph, err
}

// metrics turns a phase into the end-to-end and per-layer values that
// come from the clients, from /proc and from /v1/metrics.
func (ph *phase) metrics(rs *runState, res *workloadResult, e2e, layer values) {
	w, writer := rs.w, ph.writer
	var answers opCounts
	var lat []float64
	var respBytes int64
	servedBy := map[string]int{}
	for _, st := range ph.readers {
		answers.add(st.counts)
		lat = append(lat, st.latMS...)
		respBytes += st.bytes
		for node, n := range st.servedBy {
			servedBy[node] += n
		}
	}
	clientMeanMS := 0.0
	if n := len(lat) + len(writer.rywAnswerMS); n > 0 {
		clientMeanMS = (sum(lat) + sum(writer.rywAnswerMS)) / float64(n)
	}
	res.Ops["answer"] = answers
	readSum := summarize(lat)
	res.Latency["answer"] = readSum
	serverCPU, loadgenCPU := ph.cpu.servers, ph.cpu.loadgen
	// Times as measured, then relative to the control measured alongside.
	res.Raw["answer_p50_ms"] = readSum.P50
	res.Raw["answer_rps"] = float64(answers.OK) / ph.elapsed
	if n := answers.OK + writer.ryw.OK; n > 0 {
		res.Raw["server_cpu_ms_per_answer"] = 1000 * serverCPU / float64(n)
	}
	e2e["answer_p50_ms"] = res.Raw["answer_p50_ms"] / ph.index
	e2e["answer_rps"] = res.Raw["answer_rps"] * ph.index
	e2e["server_cpu_ms_per_answer"] = res.Raw["server_cpu_ms_per_answer"] / ph.index
	layer["bench.box_speed_index"] = ph.index
	layer["answer_p99_ms"] = readSum.P99
	if answers.OK > 0 {
		layer["http.resp_bytes_per_answer"] = float64(respBytes) / float64(answers.OK)
	}
	if !w.static() {
		res.Ops["ingest"] = writer.ingest
		ingSum := summarize(writer.ingestMS)
		res.Latency["ingest"] = ingSum
		layer["ingest_p50_ms"] = ingSum.P50
		layer["substrate.ingest_p95_ms"] = ingSum.P95
		layer["bench.ingest_late_share"] = float64(writer.late) / float64(max(writer.ingest.Attempted, 1))
	}
	if w.ryw {
		res.Ops["ryw_answer"] = writer.ryw
		rywSum := summarize(writer.rywMS)
		res.Latency["ryw_read"] = rywSum
		layer["ryw_read_p50_ms"] = rywSum.P50
	}

	layer["proc.server_cpu_util"] = serverCPU / ph.elapsed
	if serverCPU+loadgenCPU > 0 {
		layer["proc.loadgen_cpu_share"] = loadgenCPU / (serverCPU + loadgenCPU)
	}
	layer["build.go_build_s"] = rs.rig.buildS

	serverDeltas(ph.s0, ph.s1, clientMeanMS, writer.triplesPosted, layer)
	layer["vecstore.segments_max"] = float64(ph.watched.segmentsMax)
	layer["repl.lag_records_max"] = float64(ph.watched.lagMax)

	if rs.topo.lb != nil && answers.OK > 0 {
		layer["lb.primary_fallback_share"] = float64(servedBy[rs.topo.primary.url]) / float64(answers.OK)
		lo, hi := answers.OK, 0
		for _, p := range rs.topo.replicas {
			lo, hi = min(lo, servedBy[p.url]), max(hi, servedBy[p.url])
		}
		if hi > 0 {
			layer["lb.replica_balance"] = float64(lo) / float64(hi)
		}
	}
	if failed := answers.Failed + writer.ingest.Failed + writer.ryw.Failed; failed > 0 {
		rs.chk.failf("%d timed operation(s) failed", failed)
	}
}

// runWorkload measures one workload against real processes: set-up
// (repeated; the last topology stays up), the timed phase, the checks.
func runWorkload(rg *rig, ip *inproc, ref *reference, w *workload, opt runOptions) (*workloadResult, error) {
	rs := &runState{w: w, ip: ip, ref: ref, rig: rg, opt: opt, chk: &checker{}}
	res := &workloadResult{Workload: w.Name, Seed: opt.seed, Seconds: opt.seconds,
		Ops: map[string]opCounts{}, Latency: map[string]summary{}, Raw: values{}}
	e2e, layer := values{}, values{}

	// The two connections: readers first, the writer (if any) last. The
	// warm/verify pass borrows both.
	for i := 0; i < 2; i++ {
		key := ""
		if w.identities {
			key = fmt.Sprintf("bench-client-%d", i)
		}
		c := newConn(key)
		defer c.close()
		rs.conns = append(rs.conns, c)
	}

	if !w.static() {
		rs.batches = w.batches(loadSeconds(opt.seconds))
	}
	setupRaw, setupIndexed, verify, err := rs.setups()
	if rs.topo != nil {
		defer func() { rs.topo.teardown() }()
	}
	if err != nil {
		return nil, err
	}
	res.Raw["setup_s"] = median(setupRaw)
	e2e["setup_s"] = median(setupIndexed)
	e2e["quality_pct"] = verify.quality
	res.Ops["verify_answer"] = verify.counts
	if verify.counts.Failed > 0 {
		rs.chk.failf("%d warm/verify operation(s) failed", verify.counts.Failed)
	}

	ph, err := rs.timedPhase()
	if err != nil {
		return nil, err
	}
	ph.metrics(rs, res, e2e, layer)

	// Memory is read before the durable check replaces the primary.
	for _, p := range rs.topo.servers() {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		e2e["peak_rss_mb"] += mb
	}

	// Post-run checks, and the measurements that ride on them.
	if rs.opt.layers && rs.topo.lb != nil {
		layer["lb.hop_overhead_ms"] = res.Latency["answer"].P50 - rs.directPhase()
	}
	switch {
	case w.replicas > 0:
		rs.checkReplicas(ph.writer.lastEpoch)
	case w.durable:
		layer["substrate.restart_s"] = rs.checkDurable(verify, ph.writer)
	}

	res.Correct = rs.chk.failures == 0
	res.Failures = rs.chk.first
	if opt.e2e {
		res.EndToEnd = fill(endToEnd, e2e)
	}
	if opt.layers {
		res.PerLayer = layer // the traced pass and the direct calls add theirs
	}
	return res, nil
}

// serverDeltas turns two boundary scrapes of every node into the S-sourced
// layer metrics. Counters are summed over nodes; means are re-weighted by
// their counts so the window's mean is exact.
func serverDeltas(s0, s1 []serverMetrics, clientMeanMS float64, triplesPosted int, out values) {
	var dCount, dHits, dMisses, dEvict, dShared, dMemoHit, dMemoMiss, dWaited int64
	var dLatSum, dWaitSum float64
	var dWALBytes, dWALSyncs, dIngests, dCompactions, dCheckpoints int64
	var reconnects uint64
	sizeEnd := 0
	for i := range s1 {
		a, b := s0[i], s1[i]
		n0, m0 := a.method()
		n1, m1 := b.method()
		dCount += n1 - n0
		dLatSum += m1*float64(n1) - m0*float64(n0)
		dHits += b.Cache.Hits - a.Cache.Hits
		dMisses += b.Cache.Misses - a.Cache.Misses
		dEvict += b.Cache.Evictions - a.Cache.Evictions
		sizeEnd += b.Cache.Size
		dShared += b.Singleflight.Shared - a.Singleflight.Shared
		dMemoHit += b.EmbedMemo.Hits - a.EmbedMemo.Hits
		dMemoMiss += b.EmbedMemo.Misses - a.EmbedMemo.Misses
		dWaited += b.Scheduler.Waited - a.Scheduler.Waited
		dWaitSum += b.Scheduler.MeanWaitMS*float64(b.Scheduler.Waited) - a.Scheduler.MeanWaitMS*float64(a.Scheduler.Waited)
		if i == 0 { // the primary is the only writer
			for name, sb := range b.Substrates {
				sa := a.Substrates[name]
				dWALBytes += sb.Durability.WALBytes - sa.Durability.WALBytes
				dWALSyncs += sb.Durability.WALSyncs - sa.Durability.WALSyncs
				dIngests += sb.Ingests - sa.Ingests
				dCompactions += sb.Compactions - sa.Compactions
				dCheckpoints += sb.Durability.Checkpoints - sa.Durability.Checkpoints
			}
		}
		if b.Replication != nil {
			for _, src := range b.Replication.Sources {
				reconnects += src.Reconnects
			}
		}
	}
	if dCount > 0 {
		serverMeanMS := dLatSum / float64(dCount)
		out["http.server_mean_us"] = 1000 * serverMeanMS
		out["http.overhead_us"] = 1000 * (clientMeanMS - serverMeanMS)
	}
	if dHits+dMisses > 0 {
		out["serve.cache_hit_ratio"] = float64(dHits) / float64(dHits+dMisses)
	}
	out["serve.cache_evictions"] = float64(dEvict)
	out["serve.cache_size_end"] = float64(sizeEnd)
	out["serve.singleflight_shared"] = float64(dShared)
	if dMemoHit+dMemoMiss > 0 {
		out["embed.memo_hit_ratio"] = float64(dMemoHit) / float64(dMemoHit+dMemoMiss)
	}
	if dWaited > 0 {
		out["llm.scheduler_mean_wait_ms"] = dWaitSum / float64(dWaited)
	}
	if triplesPosted > 0 {
		out["substrate.wal_bytes_per_triple"] = float64(dWALBytes) / float64(triplesPosted)
	}
	if dIngests > 0 {
		out["substrate.wal_syncs_per_ingest"] = float64(dWALSyncs) / float64(dIngests)
	}
	out["substrate.compactions"] = float64(dCompactions)
	out["substrate.checkpoints"] = float64(dCheckpoints)
	out["repl.reconnects"] = float64(reconnects)
}

// directSeconds is how long the reader's sequence is replayed straight at
// one replica to price the router hop.
const directSeconds = 3

// directPhase replays the reader's sequence against the first replica
// without the router and returns the p50 in ms.
func (rs *runState) directPhase() float64 {
	gen := newReadGen(rs.opt.seed, 0, len(rs.ip.pool), rs.w.zipf, rs.w.kgs)
	st := newClientStats()
	rs.readLoop(rs.conns[0], gen, rs.topo.replicas[0].url, time.Now().Add(directSeconds*time.Second), "direct reader", &st, epochGuard{})
	return summarize(st.latMS).P50
}
