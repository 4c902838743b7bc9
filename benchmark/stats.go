package main

import (
	"math"
	"sort"
)

// This file is the benchmark's one percentile implementation: exact
// nearest-rank over the raw samples, always reported with the sample
// count. It is the implementation a later simplicity PR folds
// loadgen.percentile, serve.quantile and replay.percentileUS into; this
// PR may not touch those.

// tailLadder is the set of tail percentiles a summary may report, in
// ascending order.
var tailLadder = []float64{90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the "percentile" is one or two outliers.
const minBeyond = 10

// percentile returns the exact nearest-rank p-th percentile (0 < p <= 100)
// of sorted: the smallest sample such that at least p percent of the
// samples are less than or equal to it. Empty input gives 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The product is rounded at 1e-9 before the ceiling so that p values which
// are not exact in binary (99.9) do not step a rank on float error.
func rank(n int, p float64) int {
	r := int(math.Ceil(math.Round(p/100*float64(n)*1e9) / 1e9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// highestSupported returns the highest percentile of tailLadder that still
// has at least minBeyond samples beyond its rank, or 0 when not even the
// first rung does (fewer than 100 samples).
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// summary is a latency distribution with its sample count attached.
type summary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// TailPct is the highest percentile the sample supports (see
	// highestSupported) and Tail its value; both 0 under 100 samples.
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// summarize sorts samples in place and summarises them.
func summarize(samples []float64) summary {
	s := summary{Count: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sort.Float64s(samples)
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	s.Mean = sum / float64(len(samples))
	s.P50 = percentile(samples, 50)
	s.P95 = percentile(samples, 95)
	s.P99 = percentile(samples, 99)
	if p := highestSupported(len(samples)); p > 0 {
		s.TailPct = p
		s.Tail = percentile(samples, p)
	}
	return s
}

// median returns the middle value (mean of the two middle values for even
// counts) of an unsorted slice without modifying it.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	c := append([]float64(nil), values...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
