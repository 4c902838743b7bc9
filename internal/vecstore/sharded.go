package vecstore

import (
	"container/heap"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/embed"
	"repro/internal/kg"
)

// DefaultShardSize is the segment size BuildSharded uses when none is
// given. Segments of a few thousand vectors keep each per-shard scan well
// inside cache while leaving enough shards to occupy every core.
const DefaultShardSize = 4096

// Sharded is a segmented vector index: the triple set is split into
// segments, each its own immutable Index, and every search — one query or
// a request's batch — fans out across the view's blocks (the package
// comment's filter rule) concurrently with a top-k merge by score per
// query. On KG-scale stores the parallel scan is the difference between
// one core and all of them.
//
// Sharded is also the hot-swap substrate's composition point: Compose
// assembles a view over already-built segments, so an ingest can publish
// {base segments + fresh delta segment} without re-encoding the base.
type Sharded struct {
	enc    *embed.Encoder
	shards []*Index
	size   int // the block size
	// blocks are the view's rows cut at multiples of size.
	blocks []block
	total  int
}

// block is one block's rows in a view: pre's, which the filter rule
// counts but the scan does not score, then rows'. Only a Suffix's first
// block has a pre.
type block struct {
	pre, rows spans
}

// scan searches the block for every query by scanBlock, setting
// flipped[i] where query i's mode differs between the block's pre and the
// whole block.
func (b *block) scan(qs []batchQuery, k int, flipped []bool) [][]Hit {
	out := make([][]Hit, len(qs))
	if k > 0 {
		scanBlock(b.pre, b.rows, qs, k, out, flipped)
	}
	return out
}

// Token names a view by its watermark (the package comment's watermark):
// the rows it holds and, for a Hybrid searching a graph, the graph's ID.
// The zero Token names no view, so no view is past it.
type Token struct {
	rows  int
	graph uint64 // 0 when the view searches no graph
	set   bool   // false only in the zero Token
}

// BuildSharded encodes the triples into fixed-size segments. A
// non-positive shardSize uses DefaultShardSize. The builder takes
// ownership of the slice.
func BuildSharded(enc *embed.Encoder, triples []kg.Triple, shardSize int) *Sharded {
	return Compose(enc, shardSize, BuildShards(enc, triples, shardSize)...)
}

// BuildShards encodes the triples into fixed-size segment indexes without
// composing them — the hook for callers (the substrate manager) that keep
// the segments around to recompose with a delta segment later. A
// non-positive shardSize uses DefaultShardSize.
func BuildShards(enc *embed.Encoder, triples []kg.Triple, shardSize int) []*Index {
	return Reshard(enc, triples, shardSize, nil)
}

// Reshard is BuildShards keeping the segments prev already has: a segment
// of prev that holds a full shardSize rows, starts at a multiple of
// shardSize in prev's concatenation, and whose triples equal the same
// slice of triples field for field is reused instead of re-encoded.
// Every other segment is built from the triples, so the result equals
// BuildShards' segment for segment. The substrate's compaction passes the
// old base, which the new base extends.
func Reshard(enc *embed.Encoder, triples []kg.Triple, shardSize int, prev []*Index) []*Index {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	aligned := map[int]*Index{} // by first row
	off := 0
	for _, sh := range prev {
		if off%shardSize == 0 && sh.Len() == shardSize {
			aligned[off] = sh
		}
		off += sh.Len()
	}
	var shards []*Index
	for lo := 0; lo < len(triples); lo += shardSize {
		part := triples[lo:min(lo+shardSize, len(triples))]
		if sh := aligned[lo]; sh != nil && slices.Equal(sh.triples, part) {
			shards = append(shards, sh)
		} else {
			shards = append(shards, BuildTriples(enc, part))
		}
	}
	return shards
}

// Compose assembles a sharded view over existing segment indexes, in
// order, whose blocks are size rows (a non-positive size uses
// DefaultShardSize). Empty segments are dropped. Every segment must have
// been built with enc.
func Compose(enc *embed.Encoder, size int, shards ...*Index) *Sharded {
	if size <= 0 {
		size = DefaultShardSize
	}
	s := &Sharded{enc: enc, size: size}
	for _, sh := range shards {
		if sh == nil || sh.Len() == 0 {
			continue
		}
		s.shards = append(s.shards, sh)
		for lo := 0; lo < sh.Len(); {
			if s.total%size == 0 {
				s.blocks = append(s.blocks, block{})
			}
			hi := min(sh.Len(), lo+size-s.total%size)
			b := &s.blocks[len(s.blocks)-1]
			b.rows = append(b.rows, span{sh, lo, hi})
			s.total += hi - lo
			lo = hi
		}
	}
	return s
}

// Token names the view by its row count.
func (s *Sharded) Token() Token { return Token{rows: s.total, set: true} }

// Since returns the Suffix of s past t's watermark, and true, when t names
// a view with no graph and no more rows than s.
func (s *Sharded) Since(t Token) (*Suffix, bool) {
	if !t.set || t.graph != 0 || t.rows > s.total {
		return nil, false
	}
	return &Suffix{exact: s.from(t.rows)}, true
}

// from returns a view of s's rows from row n on: the blocks from the one
// holding row n, that block's rows before n in its pre.
func (s *Sharded) from(n int) *Sharded {
	x := &Sharded{enc: s.enc, size: s.size, total: s.total - n}
	if b := n / s.size; b < len(s.blocks) {
		x.blocks = slices.Clone(s.blocks[b:])
		first := &x.blocks[0]
		if first.pre, first.rows = first.rows.split(n % s.size); len(first.rows) == 0 {
			x.blocks = x.blocks[1:]
		}
	}
	return x
}

// Suffix is the rows a view holds from a Token's watermark on (Since),
// searched by the view's rules.
type Suffix struct {
	exact *Sharded // the suffix of the view's exact scan
	// tail and hy are a Hybrid's with a graph: the suffix of its exact
	// tail, searched instead of exact when hy routes k through the graph.
	tail *Sharded
	hy   *Hybrid
}

// Len returns the number of rows past the watermark.
func (x *Suffix) Len() int { return x.exact.total }

// BatchSearchWith returns, in query order, each query's top k over the
// rows past the watermark as the view's blocks list them, and flipped[i]
// when query i's mode changed in the block holding the watermark: fewer
// than k of its rows before the watermark share a token with the query,
// and k or more of all its rows do. A top k logged at the watermark can be
// checked against hits[i] only where flipped[i] is false (the package
// comment's watermark).
func (x *Suffix) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) (hits [][]Hit, flipped []bool) {
	qs := prepare(encode, queries)
	flipped = make([]bool, len(qs))
	view := x.exact
	if x.tail != nil && !x.hy.useFallback(k) {
		view = x.tail
	}
	return view.search(qs, k, flipped), flipped
}

// Len returns the number of indexed triples across all segments.
func (s *Sharded) Len() int { return s.total }

// Shards returns the number of non-empty segments.
func (s *Sharded) Shards() int { return len(s.shards) }

// Encoder returns the encoder the segments were built with.
func (s *Sharded) Encoder() *embed.Encoder { return s.enc }

// Search returns the top-k triples most similar to the query text, merged
// across all blocks by score.
func (s *Sharded) Search(query string, k int) []Hit {
	return s.BatchSearchWith(s.enc.Encode, []string{query}, k)[0]
}

// SearchExact is the brute-force reference: an exact scan of every segment.
func (s *Sharded) SearchExact(query string, k int) []Hit {
	return s.SearchVector(s.enc.Encode(query), k)
}

// SearchVector searches all segments with a pre-encoded vector.
func (s *Sharded) SearchVector(qv embed.Vector, k int) []Hit {
	per := make([][]Hit, len(s.shards))
	parallel(len(s.shards), func(i int) { per[i] = s.shards[i].SearchVector(qv, k) })
	return MergeTopK(per, k)
}

// BatchSearchWith searches every query with the token-filtered path, with
// caller-supplied embeddings: one batch scan per block, merged per query.
func (s *Sharded) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]Hit {
	return s.search(prepare(encode, queries), k, nil)
}

// search runs the batch scan on every block and merges each query's
// per-block top-k lists into its global top-k. flipped receives the first
// block's mode changes; it may be nil when no block has a pre.
func (s *Sharded) search(qs []batchQuery, k int, flipped []bool) [][]Hit {
	per := make([][][]Hit, len(s.blocks))
	parallel(len(s.blocks), func(i int) { per[i] = s.blocks[i].scan(qs, k, flipped) })
	out := make([][]Hit, len(qs))
	lists := make([][]Hit, len(per))
	for q := range out {
		for i := range per {
			lists[i] = per[i][q]
		}
		out[q] = MergeTopK(lists, k)
	}
	return out
}

// parallel calls fn(i) for every i in [0, n). The calls are spread over a
// worker pool sized by the machine's parallelism — the scans are
// CPU-bound, so more goroutines than schedulable threads only adds
// contention: one worker per thread, capped at n, and a plain loop when
// that leaves one (a single block, or a single-core box where goroutine
// hand-offs would only add overhead).
func parallel(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// hitCursor walks one per-segment result list inside MergeTopK.
type hitCursor struct {
	hits []Hit
	pos  int
}

// cursorHeap is a max-heap of cursors ordered by their current head hit,
// so the heap root always holds the globally next result.
type cursorHeap []hitCursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	return HitBefore(h[i].hits[h[i].pos], h[j].hits[h[j].pos])
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(hitCursor)) }
func (h *cursorHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MergeTopK merges per-list results — each already in the deterministic
// (score desc, surface-form asc) order every search path produces — into
// the global top-k with a bounded k-way heap merge: k pops over a heap of
// list heads instead of flattening and sorting every hit, so cost is
// O(k log lists) after seeding rather than O(total log total). Sharded
// fan-out and the ANN searcher's approximate-base/exact-delta assembly
// both merge through here.
func MergeTopK(per [][]Hit, k int) []Hit {
	if k <= 0 {
		return nil
	}
	h := make(cursorHeap, 0, len(per))
	for _, hits := range per {
		if len(hits) > 0 {
			h = append(h, hitCursor{hits: hits})
		}
	}
	switch len(h) {
	case 0:
		return nil
	case 1:
		hits := h[0].hits
		if len(hits) > k {
			hits = hits[:k]
		}
		return hits
	}
	heap.Init(&h)
	out := make([]Hit, 0, k)
	for len(h) > 0 && len(out) < k {
		c := &h[0]
		out = append(out, c.hits[c.pos])
		c.pos++
		if c.pos == len(c.hits) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}

// Stats aggregates segment statistics.
func (s *Sharded) Stats() Stats {
	st := Stats{Dim: embed.Dim, Shards: len(s.shards), Triples: s.total}
	for _, sh := range s.shards {
		st.Tokens += sh.Stats().Tokens
	}
	return st
}

var _ Searcher = (*Sharded)(nil)
