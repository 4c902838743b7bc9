package vecstore

import (
	"slices"
	"time"

	"repro/internal/embed"
	"repro/internal/metrics"
)

// Recall evaluation: measure an HNSW graph's answer quality and speed
// against the exact sharded scan over the same corpus. The graph is
// probed raw — SearchVectorEf, no exact fallback — so a deliberately
// narrow beam shows up as lost recall instead of being silently rescued,
// which is exactly what the CI recall gate needs to trip on.

// RecallResult is one evaluation's summary: overlap of the graph's
// top-k with the exact reference's, and the two latency populations.
type RecallResult struct {
	Corpus  int `json:"corpus"`
	Queries int `json:"queries"`
	K       int `json:"k"`
	// RecallAt1 is the fraction of queries whose graph top hit appears
	// in the exact top-1 set; RecallAtK the mean top-k overlap.
	RecallAt1 float64 `json:"recall_at_1"`
	RecallAtK float64 `json:"recall_at_k"`
	// Latency medians per query, and their ratio (exact / graph).
	ExactP50 time.Duration `json:"exact_p50_ns"`
	ANNP50   time.Duration `json:"ann_p50_ns"`
	Speedup  float64       `json:"speedup"`
}

// EvalRecall probes the graph and the exact reference with the same
// pre-encoded queries and returns the recall/latency summary. The two
// searchers must cover the same corpus; ef is the beam width for the
// graph probes (clamped up to k inside the search, never rescued by an
// exact fallback). Queries are run sequentially so the latency medians
// reflect per-query service time, not scheduler luck.
func EvalRecall(g *HNSW, exact *Sharded, queries []string, k, ef int) RecallResult {
	res := RecallResult{Corpus: exact.Len(), Queries: len(queries), K: k}
	if len(queries) == 0 || k <= 0 {
		return res
	}
	enc := exact.Encoder()
	qvs := make([]embed.Vector, len(queries))
	for i, q := range queries {
		qvs[i] = enc.Encode(q)
	}

	exactTimes := make([]time.Duration, len(queries))
	annTimes := make([]time.Duration, len(queries))
	var sumAt1, sumAtK float64
	for i, qv := range qvs {
		t0 := time.Now()
		ref := exact.SearchVector(qv, k)
		exactTimes[i] = time.Since(t0)

		t1 := time.Now()
		got := g.SearchVectorEf(qv, k, ef)
		annTimes[i] = time.Since(t1)

		refKeys := make(map[string]bool, len(ref))
		for _, h := range ref {
			refKeys[h.Triple.Key()] = true
		}
		if len(ref) == 0 {
			continue
		}
		if len(got) > 0 && got[0].Triple.Key() == ref[0].Triple.Key() {
			sumAt1++
		}
		overlap := 0
		for _, h := range got {
			if refKeys[h.Triple.Key()] {
				overlap++
			}
		}
		sumAtK += float64(overlap) / float64(len(ref))
	}
	res.RecallAt1 = sumAt1 / float64(len(queries))
	res.RecallAtK = sumAtK / float64(len(queries))
	res.ExactP50 = durationP50(exactTimes)
	res.ANNP50 = durationP50(annTimes)
	if res.ANNP50 > 0 {
		res.Speedup = float64(res.ExactP50) / float64(res.ANNP50)
	}
	return res
}

// durationP50 returns the sample's nearest-rank median, which for every
// size is the lower median (zero for empty).
func durationP50(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return metrics.Percentile(s, 50)
}
