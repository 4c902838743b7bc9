package vecstore

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/embed"
	"repro/internal/kg"
)

// DefaultShardSize is the block size, and an arena's chunk size, when
// none is given. Blocks of a few thousand vectors keep each block scan
// well inside cache while leaving enough blocks to occupy every core.
const DefaultShardSize = 4096

// Sharded is the exact view of an arena's first rows (Arena.View): every
// search — one query or a request's batch — fans out across the view's
// blocks (the package comment's filter rule) concurrently, with a top-k
// merge by score per query. On KG-scale stores the parallel scan is the
// difference between one core and all of them.
type Sharded struct {
	a      *Arena
	chunks []chunkView // the chunks holding rows [0, rows)
	rows   int
	blocks blocks // rows [0, rows) cut at multiples of the chunk size
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

// blocks are a view's blocks in row order.
type blocks []block

// cutBlocks cuts rows [from, to) of chunks, chunks of size rows, into the
// blocks of a view whose origin is origin <= from: block b holds the rows
// in [origin + b·size, origin + (b+1)·size), and the rows of the first
// block before from are its pre.
func cutBlocks(chunks []chunkView, size, origin, from, to int) blocks {
	var bs blocks
	for lo := origin + (from-origin)/size*size; lo < to; lo += size {
		hi, first := min(lo+size, to), max(lo, from)
		if first == hi {
			continue
		}
		bs = append(bs, block{pre: spansOf(chunks, size, lo, first), rows: spansOf(chunks, size, first, hi)})
	}
	return bs
}

// Token names a view by its watermark (the package comment's watermark):
// the rows it holds and, for a Hybrid searching a graph, the graph's ID.
// The zero Token names no view, so no view is past it.
type Token struct {
	rows  int
	graph uint64 // 0 when the view searches no graph
	set   bool   // false only in the zero Token
}

// Build encodes every triple the store holds into a one-block view,
// which resolves hits through the store's own triples.
func Build(enc *embed.Encoder, store *kg.Store) *Sharded {
	return BuildTriples(enc, store.Prefix(store.Len()).Triples())
}

// BuildTriples encodes the triples into a view of one block: an arena
// whose chunk size is the row count. The view keeps the slice (Arena.View).
func BuildTriples(enc *embed.Encoder, triples []kg.Triple) *Sharded {
	return BuildSharded(enc, triples, len(triples))
}

// BuildSharded encodes the triples into a new arena whose blocks are
// shardSize rows (a non-positive shardSize uses DefaultShardSize) and
// returns the view of all of them, which keeps the slice (Arena.View).
func BuildSharded(enc *embed.Encoder, triples []kg.Triple, shardSize int) *Sharded {
	a := NewArena(enc, shardSize)
	a.Append(triples)
	return a.View(triples)
}

// Token names the view by its row count.
func (s *Sharded) Token() Token { return Token{rows: s.rows, set: true} }

// Since returns the Suffix of s past t's watermark, and true, when t names
// a view with no graph and no more rows than s.
func (s *Sharded) Since(t Token) (*Suffix, bool) {
	if !t.set || t.graph != 0 || t.rows > s.rows {
		return nil, false
	}
	return &Suffix{exact: s.from(0, t.rows), rows: s.rows - t.rows}, true
}

// from returns s's rows from row w on, in blocks cut from origin.
func (s *Sharded) from(origin, w int) blocks {
	return cutBlocks(s.chunks, s.a.size, origin, w, s.rows)
}

// Suffix is the rows a view holds from a Token's watermark on (Since),
// searched by the view's rules.
type Suffix struct {
	exact blocks // the suffix of the view's exact scan
	rows  int
	// tail and hy are a Hybrid's with a graph: the suffix of its exact
	// tail, searched instead of exact when hy routes k through the graph.
	tail blocks
	hy   *Hybrid
}

// Len returns the number of rows past the watermark.
func (x *Suffix) Len() int { return x.rows }

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
	if x.hy != nil && !x.hy.useFallback(k) {
		view = x.tail
	}
	return view.search(qs, k, flipped), flipped
}

// Len returns the number of rows in the view.
func (s *Sharded) Len() int { return s.rows }

// Shards returns the number of blocks.
func (s *Sharded) Shards() int { return len(s.blocks) }

// Encoder returns the encoder the rows were embedded with.
func (s *Sharded) Encoder() *embed.Encoder { return s.a.enc }

// Search returns the top-k triples most similar to the query text, merged
// across all blocks by score: BatchSearchWith of the one query.
func (s *Sharded) Search(query string, k int) []Hit {
	return s.BatchSearchWith(s.a.enc.Encode, []string{query}, k)[0]
}

// SearchExact is the brute-force reference: an exact scan of every block.
func (s *Sharded) SearchExact(query string, k int) []Hit {
	return s.SearchVector(s.a.enc.Encode(query), k)
}

// SearchVector scores every row against a pre-encoded vector, block by
// block, and merges the blocks' top k.
func (s *Sharded) SearchVector(qv embed.Vector, k int) []Hit {
	if k <= 0 || qv.IsZero() {
		return nil
	}
	q := widen(&qv)
	per := make([][]Hit, len(s.blocks))
	parallel(len(s.blocks), func(i int) {
		ss := s.blocks[i].rows
		best := make(topK, 0, min(k, ss.rows()))
		for _, sp := range ss {
			sp.scan(&q, sp.all(), &best)
		}
		per[i] = ss.hits(ss.rank(&best))
	})
	return MergeTopK(per, k)
}

// BatchSearchWith searches every query with the token-filtered path, with
// caller-supplied embeddings: one batch scan per block, merged per query.
// encode must be consistent with the arena's encoder: callers pass
// Encoder().Encode, or a wrapper that times it.
func (s *Sharded) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]Hit {
	return s.blocks.search(prepare(encode, queries), k, nil)
}

// search runs the batch scan on every block and merges each query's
// per-block top-k lists into its global top-k. flipped receives the first
// block's mode changes; it may be nil when no block has a pre.
func (bs blocks) search(qs []batchQuery, k int, flipped []bool) [][]Hit {
	per := make([][][]Hit, len(bs))
	parallel(len(bs), func(i int) { per[i] = bs[i].scan(qs, k, flipped) })
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

// hitCursor walks one per-block result list inside MergeTopK.
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
// O(k log lists) after seeding rather than O(total log total). The block
// fan-out and the Hybrid's graph-plus-tail assembly both merge through
// here.
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

var _ Searcher = (*Sharded)(nil)
