package main

// This file is the single table of what the benchmark reports. Every name
// here is emitted for every workload, BENCHMARK.json lists exactly these
// names (TestManifestMatchesCode), and README.md explains each one.

// metricDef declares one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Source is where the number comes from: C = the load generator's own
	// client samples, S = /v1/metrics deltas scraped at phase boundaries,
	// P = /proc, T = the traced in-process pass, M = direct timed calls.
	Source string
}

// endToEnd are the metrics a user of the system would see. Each is
// defined on every workload, as the benchmark contract requires, which is
// why ingest_p50_ms and ryw_read_p50_ms — defined on two and one
// workloads — are listed under perLayer instead (README, "Bounds"). The
// three times and the rate are reported relative to the control measured
// alongside them (control.go); the artifact keeps them as measured too.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "C"},
	{"answer_p50_ms", "ms", "lower", 0.25, "C"},
	{"answer_rps", "1/s", "higher", 0.25, "C"},
	{"server_cpu_ms_per_answer", "ms", "lower", 0.25, "P"},
	{"peak_rss_mb", "MB", "lower", 0.25, "P"},
	{"quality_pct", "%", "higher", 0, "C"},
}

// perLayer are the single-layer metrics, prefixed with the module they
// measure. A metric that does not apply to a workload (lb.* on a single
// node) reads 0 there.
var perLayer = []metricDef{
	// Demoted from end-to-end; see README.
	{"answer_p99_ms", "ms", "lower", 0, "C"},
	{"ingest_p50_ms", "ms", "lower", 0, "C"},
	{"ryw_read_p50_ms", "ms", "lower", 0, "C"},

	{"http.server_mean_us", "us", "lower", 0, "S"},
	{"http.overhead_us", "us", "lower", 0, "S"},
	{"http.resp_bytes_per_answer", "B", "lower", 0, "C"},

	{"serve.request_us", "us", "lower", 0, "T"},
	{"serve.stack_self_us", "us", "lower", 0, "T"},
	{"serve.hit_path_us", "us", "lower", 0, "T"},
	{"serve.admit_release_us", "us", "lower", 0, "M"},
	{"serve.cache_hit_ratio", "ratio", "higher", 0, "S"},
	{"serve.cache_evictions", "count", "lower", 0, "S"},
	{"serve.cache_size_end", "count", "lower", 0, "S"},
	{"serve.singleflight_shared", "count", "higher", 0, "S"},

	{"core.stage.pseudo_graph_us", "us", "lower", 0, "T"},
	{"core.stage.retrieve_prune_us", "us", "lower", 0, "T"},
	{"core.stage.verify_us", "us", "lower", 0, "T"},
	{"core.stage.answer_us", "us", "lower", 0, "T"},
	{"core.retrieve_prune_self_us", "us", "lower", 0, "T"},
	{"core.pseudo_triples_per_request", "count", "lower", 0, "T"},
	{"exec.overhead_us", "us", "lower", 0, "T"},

	{"llm.complete_us", "us", "lower", 0, "T"},
	{"llm.calls_per_request", "count", "lower", 0, "T"},
	{"llm.prompt_tokens_per_request", "count", "lower", 0, "T"},
	{"llm.completion_tokens_per_request", "count", "lower", 0, "T"},
	{"llm.scheduler_mean_wait_ms", "ms", "lower", 0, "S"},

	{"prompts.render_us", "us", "lower", 0, "M"},
	{"cypher.decode_us", "us", "lower", 0, "M"},
	{"trace.build_encode_us", "us", "lower", 0, "M"},

	{"embed.encode_us", "us", "lower", 0, "M"},
	{"embed.memo_hit_ratio", "ratio", "higher", 0, "S"},

	{"vecstore.batch_search_us", "us", "lower", 0, "T"},
	{"vecstore.queries_per_request", "count", "lower", 0, "T"},
	{"vecstore.search_us_per_query", "us", "lower", 0, "T"},
	{"vecstore.segments_max", "count", "lower", 0, "S"},
	{"vecstore.exact_scan_us", "us", "lower", 0, "M"},
	{"vecstore.hnsw_search_us", "us", "lower", 0, "M"},
	{"vecstore.hnsw_build_ms", "ms", "lower", 0, "M"},
	{"vecstore.hnsw_recall_at_10", "ratio", "higher", 0, "M"},
	{"vecstore.merge_topk_us", "us", "lower", 0, "M"},

	{"kg.reads_per_request", "count", "lower", 0, "T"},
	{"kg.read_us", "us", "lower", 0, "T"},

	{"substrate.ingest_us.fsync_always", "us", "lower", 0, "M"},
	{"substrate.ingest_us.fsync_never", "us", "lower", 0, "M"},
	{"substrate.ingest_p95_ms", "ms", "lower", 0, "C"},
	{"substrate.wal_bytes_per_triple", "B", "lower", 0, "S"},
	{"substrate.wal_syncs_per_ingest", "ratio", "lower", 0, "S"},
	{"substrate.compactions", "count", "lower", 0, "S"},
	{"substrate.checkpoints", "count", "lower", 0, "S"},
	{"substrate.compact_ms", "ms", "lower", 0, "M"},
	{"substrate.checkpoint_ms", "ms", "lower", 0, "M"},
	{"substrate.checkpoint_bytes_per_triple", "B", "lower", 0, "M"},
	{"substrate.recover_ms", "ms", "lower", 0, "M"},
	{"substrate.restart_s", "s", "lower", 0, "C"},

	{"repl.apply_us", "us", "lower", 0, "M"},
	{"repl.record_codec_us", "us", "lower", 0, "M"},
	{"repl.lag_records_max", "count", "lower", 0, "S"},
	{"repl.reconnects", "count", "lower", 0, "S"},

	{"lb.hop_overhead_ms", "ms", "lower", 0, "C"},
	{"lb.primary_fallback_share", "ratio", "lower", 0, "C"},
	{"lb.replica_balance", "ratio", "higher", 0, "C"},

	{"proc.server_cpu_util", "cores", "lower", 0, "P"},
	{"proc.loadgen_cpu_share", "ratio", "lower", 0, "P"},
	{"bench.box_speed_index", "ratio", "lower", 0, "C"},
	{"bench.ingest_late_share", "ratio", "lower", 0, "C"},
	{"bench.trace_overhead_pct", "%", "lower", 0, "T"},
	{"build.go_build_s", "s", "lower", 0, "C"},
}

// values maps metric name to its measured value.
type values map[string]float64

// fill returns v restricted to defs, with 0 for any metric a workload did
// not produce, so every run emits every declared name.
func fill(defs []metricDef, v values) values {
	out := make(values, len(defs))
	for _, d := range defs {
		out[d.Name] = v[d.Name]
	}
	return out
}
