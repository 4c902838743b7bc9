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
// fixed-size segments, each its own immutable Index, and every search —
// one query or a request's batch — fans out across the segments
// concurrently with a top-k merge by score per query. On
// KG-scale stores the parallel scan is the difference between one core and
// all of them (see BenchmarkShardedVsSingleSearch).
//
// Sharded is also the hot-swap substrate's composition point: Compose
// assembles a view over already-built segments, so an ingest can publish
// {base segments + fresh delta segment} without re-encoding the base.
type Sharded struct {
	enc    *embed.Encoder
	shards []*Index
	// ids are the shards' IDs, in order: the view's Token. Never nil.
	ids   []uint64
	total int
	// memo, when non-nil, turns the segments' memos on for this view's
	// batch scans and counts their lookups (the memo rule).
	memo *MemoCounters
}

// Token names a view's composition (the package comment's segment
// identity): its segments' IDs in order and, for a Hybrid, its graph's.
// The zero Token names no view, so no view extends it.
type Token struct {
	graph uint64   // 0 when the view searches no graph
	segs  []uint64 // nil only in the zero Token
}

// BuildSharded encodes the triples into fixed-size segments. A
// non-positive shardSize uses DefaultShardSize. The builder takes
// ownership of the slice.
func BuildSharded(enc *embed.Encoder, triples []kg.Triple, shardSize int) *Sharded {
	return Compose(enc, BuildShards(enc, triples, shardSize)...)
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
// slice of triples field for field is reused — memo included — instead of
// re-encoded. Every other segment is built from the triples, so the result
// equals BuildShards' segment for segment. The substrate's compaction
// passes the old base, which the new base extends.
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

// Compose assembles a sharded view over existing segment indexes. Empty
// segments are dropped. Every segment must have been built with enc.
func Compose(enc *embed.Encoder, shards ...*Index) *Sharded {
	s := &Sharded{enc: enc, ids: make([]uint64, 0, len(shards))}
	for _, sh := range shards {
		if sh == nil || sh.Len() == 0 {
			continue
		}
		s.shards = append(s.shards, sh)
		s.ids = append(s.ids, sh.id)
		s.total += sh.Len()
	}
	return s
}

// Token names the view's segments.
func (s *Sharded) Token() Token { return Token{segs: s.ids} }

// Since reports whether s holds exactly t's segments, in order and with no
// graph, followed by zero or more others, and returns a view over the
// others with s's memo setting.
func (s *Sharded) Since(t Token) (Searcher, bool) {
	if t.graph != 0 || !s.extends(t) {
		return nil, false
	}
	return s.after(len(t.segs)), true
}

// extends reports whether s's segments begin with exactly t's.
func (s *Sharded) extends(t Token) bool {
	return t.segs != nil && len(t.segs) <= len(s.ids) && slices.Equal(s.ids[:len(t.segs)], t.segs)
}

// after returns a view over the segments after the first n, with s's memo
// setting.
func (s *Sharded) after(n int) *Sharded {
	return Compose(s.enc, s.shards[n:]...).WithMemo(s.memo)
}

// WithMemo returns a view over the same segments whose batch scans
// consult and fill each segment's memo (the package comment's memo rule),
// counting lookups into c; a nil c returns s itself.
func (s *Sharded) WithMemo(c *MemoCounters) *Sharded {
	if c == nil {
		return s
	}
	memoized := *s
	memoized.memo = c
	return &memoized
}

// Len returns the number of indexed triples across all segments.
func (s *Sharded) Len() int { return s.total }

// Shards returns the number of non-empty segments.
func (s *Sharded) Shards() int { return len(s.shards) }

// Encoder returns the encoder the segments were built with.
func (s *Sharded) Encoder() *embed.Encoder { return s.enc }

// Search returns the top-k triples most similar to the query text, merged
// across all segments by score.
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
	s.eachShard(func(i int, sh *Index) { per[i] = sh.SearchVector(qv, k) })
	return MergeTopK(per, k)
}

// BatchSearchWith searches every query with the token-filtered path, with
// caller-supplied embeddings: one batch scan per segment, merged per query.
func (s *Sharded) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]Hit {
	return s.scanBatch(prepare(encode, queries), k)
}

// scanBatch runs the batch scan on every segment and merges each query's
// per-segment top-k lists into its global top-k. Each segment returns its
// own correct top-k, so the merge of all of them contains the global
// winners.
func (s *Sharded) scanBatch(qs []batchQuery, k int) [][]Hit {
	per := make([][][]Hit, len(s.shards))
	s.eachShard(func(i int, sh *Index) { per[i] = sh.scanBatch(qs, k, s.memo) })
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

// eachShard calls fn once per segment with the segment's position. The
// calls are spread over a worker pool sized by the machine's parallelism —
// the scans are CPU-bound, so more goroutines than schedulable threads
// only adds contention: one worker per thread, capped at the shard count,
// and a plain loop when that leaves one (a single segment, or a
// single-core box where goroutine hand-offs would only add overhead).
func (s *Sharded) eachShard(fn func(i int, sh *Index)) {
	workers := min(runtime.GOMAXPROCS(0), len(s.shards))
	if workers <= 1 {
		for i, sh := range s.shards {
			fn(i, sh)
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
				if i >= len(s.shards) {
					return
				}
				fn(i, s.shards[i])
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
	if s.memo != nil {
		st.Memo = &MemoStats{Hits: s.memo.Hits.Load(), Misses: s.memo.Misses.Load()}
		for _, sh := range s.shards {
			st.Memo.Entries += sh.memoLen()
		}
	}
	return st
}

var _ Searcher = (*Sharded)(nil)
