// Package vecstore provides the vectorised triple index used by the
// pipeline's Semantic Query step: every KG triple is encoded once at build
// time, and pseudo-triples are matched against the index by cosine
// similarity to produce the temporary graph Gt.
//
// The index offers two search paths:
//
//   - Exact: brute-force cosine scan over all vectors — always correct,
//     used as the reference and for small stores.
//   - Filtered: an inverted token index pre-selects candidates sharing at
//     least one token with the query before scoring, which is typically
//     >10x faster on KG-scale stores with no recall loss in practice,
//     because zero-token-overlap pairs have near-zero cosine under the
//     hashing encoder anyway.
package vecstore

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/embed"
	"repro/internal/kg"
)

// Hit is one search result: the matched triple and its cosine score.
type Hit struct {
	Triple kg.Triple
	Score  float64
}

// Searcher is the query surface shared by the single-segment Index and the
// Sharded composite, and what the pipeline and serving layers program
// against: any consistent snapshot of a vector substrate, however it is
// assembled. Implementations are safe for concurrent searches.
type Searcher interface {
	// Len returns the number of indexed triples.
	Len() int
	// Encoder returns the encoder queries must be embedded with.
	Encoder() *embed.Encoder
	// Search returns the top-k triples most similar to the query text.
	Search(query string, k int) []Hit
	// BatchSearchWith runs Search for each query concurrently, with the
	// query embeddings supplied by encode.
	BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]Hit
	// Stats describes the index for diagnostics.
	Stats() Stats
}

var _ Searcher = (*Index)(nil)

// Index is an immutable vector index over a triple store. Build it with
// Build; it is safe for concurrent searches afterwards.
type Index struct {
	enc     *embed.Encoder
	triples []kg.Triple
	vecs    []embed.Vector
	// inverted maps token -> posting list of triple offsets.
	inverted map[string][]int32
}

// Build encodes every triple in the store and constructs the index. The
// encoder must be the same one used to encode queries.
func Build(enc *embed.Encoder, store *kg.Store) *Index {
	return BuildTriples(enc, store.All())
}

// BuildTriples builds an index directly over a triple slice.
func BuildTriples(enc *embed.Encoder, triples []kg.Triple) *Index {
	idx := &Index{
		enc:      enc,
		triples:  triples,
		vecs:     make([]embed.Vector, len(triples)),
		inverted: make(map[string][]int32),
	}
	type job struct{ lo, hi int }
	const shard = 2048
	var wg sync.WaitGroup
	for lo := 0; lo < len(triples); lo += shard {
		hi := lo + shard
		if hi > len(triples) {
			hi = len(triples)
		}
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			for i := j.lo; i < j.hi; i++ {
				idx.vecs[i] = enc.Encode(triples[i].Text())
			}
		}(job{lo, hi})
	}
	wg.Wait()
	for i, t := range triples {
		seen := make(map[string]bool, 8)
		for _, tok := range embed.Tokenize(t.Text()) {
			if seen[tok] {
				continue
			}
			seen[tok] = true
			idx.inverted[tok] = append(idx.inverted[tok], int32(i))
		}
	}
	return idx
}

// Len returns the number of indexed triples.
func (idx *Index) Len() int { return len(idx.triples) }

// Encoder returns the encoder the index was built with.
func (idx *Index) Encoder() *embed.Encoder { return idx.enc }

// Search returns the top-k triples most similar to the query text, in
// descending score order, using the token-filtered path. If the filter
// yields no candidates (no token overlap at all) it falls back to the exact
// scan so the caller always gets k results when the index has them.
func (idx *Index) Search(query string, k int) []Hit {
	return idx.searchPreEncoded(query, idx.enc.Encode(query), k)
}

// SearchExact returns the top-k results by brute-force scan over the whole
// index. It is the correctness reference for Search.
func (idx *Index) SearchExact(query string, k int) []Hit {
	return idx.searchVec(idx.enc.Encode(query), k, nil)
}

// SearchVector searches with a pre-encoded query vector over all triples.
func (idx *Index) SearchVector(qv embed.Vector, k int) []Hit {
	return idx.searchVec(qv, k, nil)
}

// searchPreEncoded is Search for callers that already hold the query's
// embedding (e.g. from a memo): it keeps the token-filtered candidate
// path — which needs the query text — but skips re-encoding. The vector
// must have been produced by this index's encoder for the given text.
func (idx *Index) searchPreEncoded(query string, qv embed.Vector, k int) []Hit {
	cands := idx.candidates(query)
	if len(cands) < k {
		// Not enough token-overlapping candidates to fill k slots: scan
		// everything so the caller still gets k results.
		return idx.searchVec(qv, k, nil)
	}
	return idx.searchVec(qv, k, cands)
}

// candidates returns the offsets of triples sharing at least one query
// token, deduplicated, or nil when the query has no indexed token.
func (idx *Index) candidates(query string) []int32 {
	toks := embed.Tokenize(query)
	if len(toks) == 0 {
		return nil
	}
	seen := make(map[int32]bool)
	var out []int32
	dedup := make(map[string]bool, len(toks))
	for _, tok := range toks {
		if dedup[tok] {
			continue
		}
		dedup[tok] = true
		for _, off := range idx.inverted[tok] {
			if !seen[off] {
				seen[off] = true
				out = append(out, off)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// hitHeap is a min-heap over scores holding the best k hits seen so far.
type hitHeap []Hit

func (h hitHeap) Len() int           { return len(h) }
func (h hitHeap) Less(i, j int) bool { return h[i].Score < h[j].Score }
func (h hitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)        { *h = append(*h, x.(Hit)) }
func (h *hitHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (idx *Index) searchVec(qv embed.Vector, k int, subset []int32) []Hit {
	if k <= 0 || qv.IsZero() {
		return nil
	}
	h := make(hitHeap, 0, k+1)
	consider := func(i int) {
		// NormDot, not Vector.Dot: the per-candidate kernel takes
		// pointers (no 1 KiB array copies) and unrolls the accumulation.
		score := embed.NormDot(&qv, &idx.vecs[i])
		if len(h) < k {
			heap.Push(&h, Hit{Triple: idx.triples[i], Score: score})
			return
		}
		if score > h[0].Score {
			h[0] = Hit{Triple: idx.triples[i], Score: score}
			heap.Fix(&h, 0)
		}
	}
	if subset == nil {
		for i := range idx.vecs {
			consider(i)
		}
	} else {
		for _, off := range subset {
			consider(int(off))
		}
	}
	out := make([]Hit, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Hit)
	}
	// Tie-break equal scores deterministically by triple surface form.
	sort.SliceStable(out, func(i, j int) bool { return hitBefore(out[i], out[j]) })
	return out
}

// hitBefore is the deterministic result order every Searcher produces:
// score descending, equal scores broken by triple surface form ascending.
func hitBefore(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Triple.Key() < b.Triple.Key()
}

// BatchSearchWith runs Search for each query concurrently and returns
// results in query order, with the query embeddings supplied by encode
// instead of the index's encoder — the hook for callers that memoise
// embeddings (internal/core's session memo). encode must be safe for
// concurrent use and consistent with the index's encoder.
func (idx *Index) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]Hit {
	return batchSearch(idx, encode, queries, k)
}

// preEncodedSearcher is the surface batchSearch fans out over: one query
// with its embedding supplied, searched without internal concurrency.
type preEncodedSearcher interface {
	searchPreEncoded(query string, qv embed.Vector, k int) []Hit
}

// batchSearch runs per-query searches concurrently, bounded by the
// machine's parallelism: the searches are CPU-bound scans, so more
// goroutines than schedulable threads only adds contention, and fewer
// leaves large boxes idle. Each query is searched single-threaded (a
// Sharded goes shard by shard) — the outer pool already saturates the
// cores, so nesting a per-shard fan-out inside it would multiply the
// goroutine count without adding throughput.
func batchSearch(s preEncodedSearcher, encode func(string) embed.Vector, queries []string, k int) [][]Hit {
	out := make([][]Hit, len(queries))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, q := range queries {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q string) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = s.searchPreEncoded(q, encode(q), k)
		}(i, q)
	}
	wg.Wait()
	return out
}

// Stats describes an index for diagnostics.
type Stats struct {
	Triples int `json:"triples"`
	Tokens  int `json:"tokens"`
	Dim     int `json:"dim"`
	// Shards is the number of fixed-size segments (1 for a plain Index).
	Shards int `json:"shards"`
	// ANN describes the approximate layer when one is composed in (an
	// HNSW graph or a Hybrid wrapping one); nil for purely exact views.
	ANN *ANNInfo `json:"ann,omitempty"`
}

// ANNInfo describes an approximate index layer: graph shape, the beam
// width in effect, and — on serving composites — how traffic split
// between the graph and the exact fallback, so loadgen runs can
// attribute latency wins to the index.
type ANNInfo struct {
	// Nodes is the graph size: how many triples the graph covers (the
	// remainder of the corpus, if any, is exact-scanned and merged).
	Nodes          int   `json:"nodes"`
	MaxLevel       int   `json:"max_level"`
	M              int   `json:"m"`
	EfConstruction int   `json:"ef_construction"`
	EfSearch       int   `json:"ef_search"`
	Searches       int64 `json:"searches"`
	Fallbacks      int64 `json:"fallbacks"`
}

// Stats returns index statistics.
func (idx *Index) Stats() Stats {
	return Stats{Triples: len(idx.triples), Tokens: len(idx.inverted), Dim: embed.Dim, Shards: 1}
}

// String renders the stats.
func (s Stats) String() string {
	if s.Shards > 1 {
		return fmt.Sprintf("vecstore: %d triples, %d tokens, dim=%d, %d shards", s.Triples, s.Tokens, s.Dim, s.Shards)
	}
	return fmt.Sprintf("vecstore: %d triples, %d tokens, dim=%d", s.Triples, s.Tokens, s.Dim)
}
