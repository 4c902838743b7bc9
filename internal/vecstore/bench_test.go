package vecstore

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/embed"
)

// BenchmarkTopKMerge measures the bounded k-way heap merge against the
// shard fan-out's per-shard result lists: f sorted lists of k hits each,
// merged down to k.
func BenchmarkTopKMerge(b *testing.B) {
	for _, shards := range []int{4, 16, 64} {
		for _, k := range []int{10, 100} {
			per := make([][]Hit, shards)
			for s := range per {
				per[s] = make([]Hit, k)
				for i := range per[s] {
					// Descending per list, interleaved across lists.
					per[s][i] = Hit{Score: 1 - float64(i*shards+s)/float64(shards*k)}
					per[s][i].Triple.Subject = fmt.Sprintf("s%d-%d", s, i)
				}
			}
			b.Run(fmt.Sprintf("shards=%d/k=%d", shards, k), func(b *testing.B) {
				for b.Loop() {
					MergeTopK(per, k)
				}
			})
		}
	}
}

// BenchmarkExactScan and BenchmarkHNSWSearch are the before/after pair
// for sublinear retrieval: the same corpus and queries through the
// brute-force sharded scan and through the graph.
func BenchmarkExactScan(b *testing.B) {
	enc := embed.NewEncoder()
	triples := corpus(20000)
	s := BuildSharded(enc, triples, 0)
	qv := enc.Encode("Lake Superior 42 area")
	b.ResetTimer()
	for b.Loop() {
		s.SearchVector(qv, 10)
	}
}

func BenchmarkHNSWSearch(b *testing.B) {
	enc := embed.NewEncoder()
	triples := corpus(20000)
	g := BuildHNSW(enc, triples, HNSWConfig{})
	qv := enc.Encode("Lake Superior 42 area")
	b.ResetTimer()
	for b.Loop() {
		g.SearchVectorEf(qv, 10, g.Config().EfSearch)
	}
}

// BenchmarkHNSWBuild builds the graph over rows an arena already holds, as
// the substrate does at boot and on every compaction, and reports what the
// build allocates per row — links, the per-insert beams and the sorts; no
// vector is copied.
func BenchmarkHNSWBuild(b *testing.B) {
	const rows = 2 * DefaultShardSize
	enc := embed.NewEncoder()
	v := BuildSharded(enc, corpus(rows), 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for b.Loop() {
		BuildGraph(v, HNSWConfig{})
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*rows), "B/row")
}

// BenchmarkFilteredSearch is the served path: the pipeline's per-request
// call (Sharded.BatchSearchWith, one query per pseudo-triple), each
// query token-filtered per block and the block walked once for the
// batch. Two of the queries share a subject, as the pseudo-triples of one
// pseudo-graph do, so their candidate sets overlap.
func BenchmarkFilteredSearch(b *testing.B) {
	enc := embed.NewEncoder()
	s := BuildSharded(enc, corpus(20000), 0)
	queries := []string{"Lake Superior 42 area", "Lake Superior 42 country Canada", "River Danube length"}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		s.BatchSearchWith(enc.Encode, queries, 10)
	}
}

// BenchmarkKernel scores one query against every row of a block with
// the dense reference kernel and with the packed kernel the scan and the
// graph use, and two queries with the two-query kernel (compare with twice
// packed). The packed kernels also report ns/entry: time per packed entry
// scored, padding included, which is what a row costs them.
func BenchmarkKernel(b *testing.B) {
	enc := embed.NewEncoder()
	triples := corpus(DefaultShardSize)
	rows := &BuildTriples(enc, triples).chunks[0].rows
	dense := make([]embed.Vector, len(triples))
	for i, t := range triples {
		dense[i] = enc.Encode(t.Text())
	}
	entries := float64(len(rows.idx))
	perEntry := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*entries), "ns/entry")
	}
	qv := enc.Encode("Lake Superior 42 area")
	var sink float64
	b.Run("NormDot", func(b *testing.B) {
		for b.Loop() {
			for i := range dense {
				sink += embed.NormDot(&qv, &dense[i])
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		q := widen(&qv)
		for b.Loop() {
			for i := range dense {
				sink += rows.dot(&q, i)
			}
		}
		perEntry(b)
	})
	b.Run("packed2", func(b *testing.B) {
		qv2 := enc.Encode("Lake Superior 42 country Canada")
		q, q2 := widen(&qv), widen(&qv2)
		for b.Loop() {
			for i := range dense {
				sa, sb := rows.dot2(&q, &q2, i)
				sink += sa + sb
			}
		}
		perEntry(b)
	})
	_ = sink
}
