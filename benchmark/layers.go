package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/kg"
	"repro/internal/serve"
	"repro/internal/substrate"
	"repro/internal/trace"
	"repro/internal/vecstore"
)

// This file produces the T- and M-sourced layer metrics: the traced pass
// (a fixed request count replayed in-process through the composition the
// servers run, with the decorators of trace.go) and the direct timed
// calls to single layers.

// tracedRequests is how many reads the traced pass replays. It is a count,
// not a duration, so per-request counts repeat exactly run to run.
const tracedRequests = 1000

// tracedOps is the traced pass's fixed input: the first tracedRequests
// reads of the workload's generated sequence, the readers' streams taken
// in turn.
func tracedOps(w *workload, seed int64, poolSize int) []readOp {
	gens := make([]*readGen, w.readers)
	for i := range gens {
		gens[i] = newReadGen(seed, i, poolSize, w.zipf, w.kgs)
	}
	ops := make([]readOp, tracedRequests)
	for i := range ops {
		ops[i] = gens[i%len(gens)].next()
	}
	return ops
}

// tracedNodeConfig sizes the in-process node like the workload's server.
func tracedNodeConfig(w *workload, dir string) nodeConfig {
	cfg := nodeConfig{}
	if !w.cacheOff {
		cfg.cacheSize = 4096 // pgakvd's default
	}
	if !w.static() {
		cfg.substrate.CompactThreshold = 2048 // pgakvd's default
	}
	if w.durable {
		cfg.substrate.Durability.Dir = dir
	}
	if w.fsyncAlways {
		cfg.substrate.Durability.Fsync = substrate.SyncAlways
	}
	return cfg
}

// replay runs the traced pass's sequence once against a fresh node and
// returns the wall time spent in reads. With a recorder the node's layers
// are wrapped and every read gets a request ID; without one the node is
// bare, and the difference between the two is the tracing overhead.
func replay(rg *rig, ip *inproc, w *workload, seed int64, rec *recorder) (time.Duration, error) {
	dir, err := rg.tempDir(w.Name + "-traced")
	if err != nil {
		return 0, err
	}
	h := hooks{}
	if rec != nil {
		h = tracingHooks(rec)
	}
	n, err := ip.newNode(tracedNodeConfig(w, dir), h)
	if err != nil {
		return 0, err
	}
	defer n.close()
	ops := tracedOps(w, seed, len(ip.pool))
	ctx := context.Background()

	if !w.cacheOff {
		// The servers are measured after the warm pass filled their cache;
		// fill this one with the keys the sequence will ask for. The
		// recorder ignores everything before its first begin.
		seen := map[readOp]bool{}
		for _, op := range ops {
			if !seen[op] {
				seen[op] = true
				if _, err := n.answerers[op.KG].Answer(ctx, query(ip.pool[op.Q].Text)); err != nil {
					return 0, err
				}
			}
		}
	}
	var wall time.Duration
	batch := 0
	for i, op := range ops {
		req := i + 1
		rctx := ctx
		if rec != nil {
			rec.begin(req)
			rctx = rec.observeStages(ctx)
		}
		start := time.Now()
		_, err := n.answerers[op.KG].Answer(rctx, query(ip.pool[op.Q].Text))
		wall += time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("traced request %d: %w", req, err)
		}
		if w.traceIngestEvery > 0 && req%w.traceIngestEvery == 0 {
			if rec != nil {
				rec.begin(tracedRequests + 1 + batch)
			}
			start := time.Now()
			res, err := n.mgrs[ingestSource].Ingest(ingestBatch(w.Name, seed, batch, w.batchSize))
			if rec != nil {
				rec.add(spanIngest, start, time.Now())
			}
			if err != nil {
				return 0, fmt.Errorf("traced ingest %d: %w", batch, err)
			}
			if res.Added != w.batchSize {
				return 0, fmt.Errorf("traced ingest %d: added %d of %d", batch, res.Added, w.batchSize)
			}
			batch++
		}
	}
	return wall, nil
}

// tracedPass runs the sequence bare, traced and bare again, writes the
// span file, and returns the T-sourced metrics. The traced pass sits
// between the two bare ones so that whatever drifts over the process's
// life (heap size, page cache) lands on both sides of the comparison.
func tracedPass(rg *rig, ip *inproc, w *workload, seed int64, chk *checker) (values, error) {
	before, err := replay(rg, ip, w, seed, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := replay(rg, ip, w, seed, rec)
	if err != nil {
		return nil, err
	}
	after, err := replay(rg, ip, w, seed, nil)
	if err != nil {
		return nil, err
	}
	bare := (before + after) / 2
	spans := rec.spans
	if bad, first := nest(spans); bad > 0 {
		chk.failf("traced pass: %d span(s) straddle or lie outside the spans of the layers above, e.g. %+v", bad, spans[first])
	}
	self := selfTimes(spans)
	for id, v := range self {
		if v < 0 {
			chk.failf("traced pass: span %d has negative self time %d ns", id, v)
			break
		}
	}
	dir := filepath.Join(rg.root, "benchmark", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(dir, "spans_"+w.Name+".jsonl"), spans); err != nil {
		return nil, err
	}
	out := ledger(spans, self, rec.counts)
	out["bench.trace_overhead_pct"] = 100 * float64(traced-bare) / float64(bare)
	return out, nil
}

// ledger folds a traced pass into per-request means (µs per read request,
// whether or not that request reached the layer — a cache hit contributes
// zero pipeline time).
func ledger(spans []span, self map[int]int64, counts map[string]int64) values {
	const n = float64(tracedRequests)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	durBy, selfBy := map[string]int64{}, map[string]int64{}
	calls := map[string]int{}
	hasRun := map[int]bool{}
	for _, s := range spans {
		durBy[s.Name] += s.dur()
		selfBy[s.Name] += self[s.ID]
		calls[s.Name]++
		if s.Name == spanRun {
			hasRun[s.Req] = true
		}
	}
	var hitNS int64
	hits := 0
	for _, s := range spans {
		if s.Name == spanStack && !hasRun[s.Req] {
			hitNS += s.dur()
			hits++
		}
	}
	out := values{
		"serve.stack_self_us":               us(selfBy[spanStack]) / n,
		"serve.request_us":                  us(durBy[spanStack]) / n,
		"core.stage.pseudo_graph_us":        us(durBy[spanStagePrefix+core.StagePseudo]) / n,
		"core.stage.retrieve_prune_us":      us(durBy[spanStagePrefix+core.StageRetrieve]) / n,
		"core.stage.verify_us":              us(durBy[spanStagePrefix+core.StageVerify]) / n,
		"core.stage.answer_us":              us(durBy[spanStagePrefix+core.StageAnswer]) / n,
		"core.retrieve_prune_self_us":       us(selfBy[spanStagePrefix+core.StageRetrieve]) / n,
		"core.pseudo_triples_per_request":   float64(counts["core.pseudo_triples"]) / n,
		"exec.overhead_us":                  us(selfBy[spanRun]) / n,
		"llm.complete_us":                   us(durBy[spanLLM]) / n,
		"llm.calls_per_request":             float64(counts["llm.calls"]) / n,
		"llm.prompt_tokens_per_request":     float64(counts["llm.prompt_tokens"]) / n,
		"llm.completion_tokens_per_request": float64(counts["llm.completion_tokens"]) / n,
		"vecstore.batch_search_us":          us(durBy[spanBatchSearch]) / n,
		"vecstore.queries_per_request":      float64(counts["vecstore.queries"]) / n,
		"kg.reads_per_request":              float64(calls[spanKGRead]) / n,
		"kg.read_us":                        us(durBy[spanKGRead]) / n,
	}
	if hits > 0 {
		out["serve.hit_path_us"] = us(hitNS) / float64(hits)
	}
	if q := counts["vecstore.queries"]; q > 0 {
		out["vecstore.search_us_per_query"] = us(durBy[spanBatchSearch]) / float64(q)
	}
	return out
}

// --- direct timed calls (M) ---

// timeEach calls f n times and returns the median duration in µs.
func timeEach(n int, f func(i int)) float64 {
	d := make([]float64, n)
	for i := range d {
		start := time.Now()
		f(i)
		d[i] = float64(time.Since(start)) / 1e3
	}
	return median(d)
}

// timeLoop calls f n times in each of five batches and returns the
// median batch's mean in µs — for calls too short to time one by one.
func timeLoop(n int, f func(i int)) float64 {
	batches := make([]float64, 5)
	for b := range batches {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		batches[b] = float64(time.Since(start)) / 1e3 / float64(n)
	}
	return median(batches)
}

// sink keeps results of timed calls reachable so the compiler cannot
// remove the calls.
var sink any

// annCorpus is the size of the fixed bench.RecallCorpus the ANN layer is
// timed on. The issue asked for 20 000; that graph takes 22 s to build on
// this box and the metrics are emitted with every traced run, so the
// corpus is the largest that keeps a traced run inside its time budget.
const annCorpus = 2000

// directCalls times each layer's public functions alone, on inputs the
// reference run captured. None depends on the workload or its seed.
func directCalls(rg *rig, ip *inproc, ref *reference) (values, error) {
	out := values{}
	ctx := context.Background()

	// serve: the admission gate as hot_zipf configures it.
	adm := serve.NewAdmission(admissionConfig)
	out["serve.admit_release_us"] = timeLoop(2000, func(int) {
		release, err := adm.Admit(ctx, "bench-client-0")
		if err == nil {
			release()
		}
	})

	// prompts, cypher, trace, embed: on the captured reference runs.
	view := ip.prompts.View()
	samples := ref.samples
	out["prompts.render_us"] = timeLoop(len(samples), func(i int) {
		tr := samples[i].Trace
		sink = view.PseudoGraph(tr.Question) + view.Verify(tr.Question, tr.Gg.String(), tr.Gp.String()) +
			view.AnswerFromGraph(tr.Question, tr.Gf.String())
	})
	out["cypher.decode_us"] = timeLoop(len(samples), func(i int) {
		sink, _ = cypher.Decode(core.ExtractCypher(samples[i].Trace.PseudoRaw))
	})
	out["trace.build_encode_us"] = timeLoop(len(samples), func(i int) {
		rec := trace.Build(query(samples[i].Trace.Question), samples[i], nil, trace.Meta{KG: kg.SourceWikidata.String()})
		sink, _ = json.Marshal(rec)
	})
	var texts []string
	for _, s := range samples {
		for _, t := range s.Trace.Gp.Triples {
			texts = append(texts, t.Text())
		}
	}
	out["embed.encode_us"] = timeLoop(len(texts), func(i int) { sink = ip.enc.Encode(texts[i]) })

	// vecstore: the ANN path no end-to-end workload runs yet.
	corpus := bench.RecallCorpus(annCorpus, 1)
	queries := bench.RecallQueries(corpus, 100, 1)
	exact := vecstore.BuildSharded(ip.enc, corpus, 0)
	start := time.Now()
	graph := vecstore.BuildHNSW(ip.enc, corpus, vecstore.HNSWConfig{})
	out["vecstore.hnsw_build_ms"] = float64(time.Since(start)) / 1e6
	recall := vecstore.EvalRecall(graph, exact, queries, 10, graph.Config().EfSearch)
	out["vecstore.exact_scan_us"] = float64(recall.ExactP50) / 1e3
	out["vecstore.hnsw_search_us"] = float64(recall.ANNP50) / 1e3
	out["vecstore.hnsw_recall_at_10"] = recall.RecallAtK
	per := make([][]vecstore.Hit, 8)
	for i := range per {
		per[i] = exact.Search(queries[i], 10)
	}
	out["vecstore.merge_topk_us"] = timeLoop(2000, func(int) { sink = vecstore.MergeTopK(per, 10) })

	if err := substrateCalls(rg, ip, out); err != nil {
		return nil, err
	}
	return out, nil
}

// substrateCalls times the write path's pieces on fresh managers.
func substrateCalls(rg *rig, ip *inproc, out values) error {
	ctx := context.Background()
	const batches, size = 30, 32
	manager := func(name string, cfg substrate.Config) (*substrate.Manager, string, error) {
		seed, err := ip.seedStore(ingestSource)
		if err != nil {
			return nil, "", err
		}
		dir := ""
		if name != "" {
			if dir, err = rg.tempDir("direct-" + name); err != nil {
				return nil, "", err
			}
			cfg.Durability.Dir = dir
		}
		m, err := substrate.Recover(ip.enc, seed, cfg)
		return m, dir, err
	}
	ingest := func(m *substrate.Manager, tag string, n, size int) (float64, error) {
		var firstErr error
		us := timeEach(n, func(i int) {
			if _, err := m.Ingest(ingestBatch(tag, 0, i, size)); err != nil && firstErr == nil {
				firstErr = err
			}
		})
		return us, firstErr
	}

	// fsync=always: ingest, then a checkpoint, then a 44-record tail and a
	// recovery of exactly that directory.
	always, dir, err := manager("always", substrate.Config{Durability: substrate.Durability{Fsync: substrate.SyncAlways}})
	if err != nil {
		return err
	}
	if out["substrate.ingest_us.fsync_always"], err = ingest(always, "direct-a", batches, size); err != nil {
		always.Close()
		return err
	}
	start := time.Now()
	info, err := always.Checkpoint(ctx)
	out["substrate.checkpoint_ms"] = float64(time.Since(start)) / 1e6
	if err != nil {
		always.Close()
		return err
	}
	bytes, err := dirBytes(info.Path)
	if err != nil {
		always.Close()
		return err
	}
	out["substrate.checkpoint_bytes_per_triple"] = float64(bytes) / float64(info.Triples)
	if _, err := ingest(always, "direct-tail", 44, 16); err != nil {
		always.Close()
		return err
	}
	if err := always.Close(); err != nil {
		return err
	}
	seed, err := ip.seedStore(ingestSource)
	if err != nil {
		return err
	}
	start = time.Now()
	recovered, err := substrate.Recover(ip.enc, seed, substrate.Config{Durability: substrate.Durability{Dir: dir, Fsync: substrate.SyncAlways}})
	out["substrate.recover_ms"] = float64(time.Since(start)) / 1e6
	if err != nil {
		return err
	}
	if rec := recovered.Recovery(); rec.CheckpointEpoch != info.Epoch || rec.ReplayedRecords != 44 {
		recovered.Close()
		return fmt.Errorf("recovery loaded checkpoint %d and %d records, want %d and 44", rec.CheckpointEpoch, rec.ReplayedRecords, info.Epoch)
	}
	recovered.Close()

	never, _, err := manager("never", substrate.Config{Durability: substrate.Durability{Fsync: substrate.SyncNever}})
	if err != nil {
		return err
	}
	out["substrate.ingest_us.fsync_never"], err = ingest(never, "direct-n", batches, size)
	never.Close()
	if err != nil {
		return err
	}

	// Compaction alone: a memory-only manager, so no checkpoint rides on it.
	mem, _, err := manager("", substrate.Config{})
	if err != nil {
		return err
	}
	defer mem.Close()
	if _, err := ingest(mem, "direct-m", batches, size); err != nil {
		return err
	}
	start = time.Now()
	_, err = mem.Compact(ctx)
	out["substrate.compact_ms"] = float64(time.Since(start)) / 1e6
	if err != nil {
		return err
	}

	// repl: a replica applying shipped 16-triple records, and their codec.
	replica, _, err := manager("replica", substrate.Config{Replica: true})
	if err != nil {
		return err
	}
	defer replica.Close()
	epoch := replica.Epoch()
	var applyErr error
	out["repl.apply_us"] = timeEach(batches, func(i int) {
		rec := substrate.WALRecord{Epoch: epoch + uint64(i) + 1, Triples: ingestBatch("direct-r", 0, i, 16)}
		if ok, err := replica.ApplyReplicated(rec); (err != nil || !ok) && applyErr == nil {
			applyErr = fmt.Errorf("ApplyReplicated epoch %d: applied=%v err=%v", rec.Epoch, ok, err)
		}
	})
	if applyErr != nil {
		return applyErr
	}
	rec := substrate.WALRecord{Epoch: 7, Triples: ingestBatch("direct-c", 0, 0, 16)}
	out["repl.record_codec_us"] = timeLoop(1000, func(int) {
		sink, _ = substrate.DecodeWALRecord(substrate.EncodeWALRecord(rec))
	})
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return err
	})
	return total, err
}

// isolation evaluates, from one run's metrics, whether the workload still
// isolates the layers it exists to isolate. Each line starts with "ok" or
// "VIOLATED".
func isolation(w *workload, layer values) []string {
	var out []string
	check := func(ok bool, format string, args ...any) {
		verdict := "ok"
		if !ok {
			verdict = "VIOLATED"
		}
		out = append(out, verdict+": "+fmt.Sprintf(format, args...))
	}
	stages := layer["core.stage.pseudo_graph_us"] + layer["core.stage.retrieve_prune_us"] +
		layer["core.stage.verify_us"] + layer["core.stage.answer_us"]
	switch w.Name {
	case "cold_answer":
		// The traced pass runs one request at a time and the servers run
		// two on two cores, so the server-side mean also holds the time a
		// request waits for a core; that share is reported, not gated.
		pipeline := stages + layer["exec.overhead_us"]
		check(pipeline/layer["serve.request_us"] >= 0.8, "pipeline stages + exec overhead are %.0f%% of the traced request (>= 80%%) and %.0f%% of the server-side mean under two clients",
			100*pipeline/layer["serve.request_us"], 100*pipeline/layer["http.server_mean_us"])
	case "hot_zipf":
		check(layer["serve.cache_hit_ratio"] >= 0.99, "cache hit ratio %.4f (>= 0.99)", layer["serve.cache_hit_ratio"])
		share := stages / layer["serve.request_us"]
		check(share < 0.05, "pipeline stages are %.1f%% of request time (< 5%%)", 100*share)
	case "mixed_ingest":
		check(layer["substrate.compactions"] >= 4, "%.0f auto-compactions (>= 4)", layer["substrate.compactions"])
	case "routed_reads":
		check(layer["lb.primary_fallback_share"] < 0.05, "primary served %.1f%% of the reader's requests (< 5%%)", 100*layer["lb.primary_fallback_share"])
	}
	return out
}
