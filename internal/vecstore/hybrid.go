package vecstore

import (
	"sync/atomic"

	"repro/internal/embed"
)

// ANNCounters tracks how a Hybrid routed queries. The substrate manager
// owns one and threads it through successive snapshot publishes, so the
// counts survive recomposition (every ingest publishes a new Hybrid).
type ANNCounters struct {
	// Searches counts queries answered through the graph.
	Searches atomic.Int64
	// Fallbacks counts queries answered by the exact scan instead (beam
	// narrower than k, or no usable graph).
	Fallbacks atomic.Int64
}

// HybridOptions tunes a Hybrid view.
type HybridOptions struct {
	// EfSearch is the search beam width (0 uses DefaultHNSWEfSearch).
	EfSearch int
	// Counters receives routing counts; nil disables counting.
	Counters *ANNCounters
}

// Hybrid is the serving composite of the approximate/exact split over an
// exact view: an HNSW graph over the view's first rows, an exact scan
// over the rest (the tail: rows ingested since the graph was built), and
// a brute-force fallback over everything. Per-path top-k lists merge
// through MergeTopK, so results keep the deterministic (score desc,
// surface form asc) order every Searcher produces.
type Hybrid struct {
	full *Sharded // every row: exact reference and fallback path
	ann  *HNSW
	tail blocks // the rows the graph does not cover, in blocks cut from its first
	opts HybridOptions
}

// NewHybrid assembles a Hybrid over view with the graph ann: the graph
// searches rows [0, m) of view's arena, m its node count, and the tail
// rows [m, view.Len()) in blocks cut from m (the package comment's filter
// rule). A graph over another arena, or over more rows than the view
// holds, is discarded and the view degrades to pure exact scan rather
// than serving wrong results. ann may be nil for an exact-only view with
// fallback accounting.
func NewHybrid(view *Sharded, ann *HNSW, opts HybridOptions) *Hybrid {
	if ann != nil && (ann.a != view.a || ann.Len() > view.rows) {
		ann = nil
	}
	hy := &Hybrid{full: view, ann: ann, opts: opts}
	if ann != nil {
		hy.tail = view.from(ann.Len(), ann.Len())
	}
	return hy
}

// covered returns the number of rows the graph holds.
func (hy *Hybrid) covered() int {
	if hy.ann == nil {
		return 0
	}
	return hy.ann.Len()
}

// ef returns the beam width in effect.
func (hy *Hybrid) ef() int {
	if hy.opts.EfSearch > 0 {
		return hy.opts.EfSearch
	}
	return DefaultHNSWEfSearch
}

// useFallback decides routing: exact when there is no usable graph, or
// when the beam cannot fill k slots.
func (hy *Hybrid) useFallback(k int) bool {
	return hy.ann == nil || hy.ann.Len() == 0 || hy.ef() < k
}

// Encoder returns the encoder the rows were embedded with.
func (hy *Hybrid) Encoder() *embed.Encoder { return hy.full.Encoder() }

// SearchExact is the brute-force reference over every row, bypassing the
// graph.
func (hy *Hybrid) SearchExact(query string, k int) []Hit {
	return hy.full.SearchExact(query, k)
}

// BatchSearchWith searches every query, with caller-supplied embeddings,
// through the graph+tail split — one graph probe per query merged with
// one batch scan of the uncovered tail — or, on fallback, one batch scan
// of every row, counting which path answered.
func (hy *Hybrid) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]Hit {
	qs := prepare(encode, queries)
	if k <= 0 {
		return make([][]Hit, len(qs))
	}
	if hy.useFallback(k) {
		if hy.opts.Counters != nil {
			hy.opts.Counters.Fallbacks.Add(int64(len(qs)))
		}
		return hy.full.blocks.search(qs, k, nil)
	}
	if hy.opts.Counters != nil {
		hy.opts.Counters.Searches.Add(int64(len(qs)))
	}
	out := hy.tail.search(qs, k, nil)
	for i := range qs {
		out[i] = MergeTopK([][]Hit{hy.ann.SearchVectorEf(qs[i].vec, k, hy.ef()), out[i]}, k)
	}
	return out
}

// Token names the view by its row count and its graph.
func (hy *Hybrid) Token() Token {
	t := hy.full.Token()
	if hy.ann != nil {
		t.graph = hy.ann.id
	}
	return t
}

// Since returns the Suffix of hy past t's watermark, and true, when t
// names a view under hy's graph with no more rows than hy. Either path hy
// routes a query down — graph plus tail, or the fallback over every row —
// has its own suffix: the graph's list is the same under one graph, so
// only the exact rows past the watermark differ.
func (hy *Hybrid) Since(t Token) (*Suffix, bool) {
	covered := hy.covered()
	if !t.set || t.graph != hy.Token().graph || t.rows < covered || t.rows > hy.full.Len() {
		return nil, false
	}
	x := &Suffix{exact: hy.full.from(0, t.rows), rows: hy.full.Len() - t.rows}
	if hy.ann != nil {
		x.tail, x.hy = hy.full.from(covered, t.rows), hy
	}
	return x, true
}

var _ Searcher = (*Hybrid)(nil)
