// Package vecstore provides the vectorised triple index used by the
// pipeline's Semantic Query step: every KG triple is encoded once at build
// time, and pseudo-triples are matched against the index by cosine
// similarity to produce the temporary graph Gt.
//
// Row layout. The hashing encoder's vectors are sparse (about a hundred
// non-zero components of embed.Dim), so an Index keeps only each row's
// non-zero components, in the order the scoring kernel consumes them
// (packedRows): groups of four (dimension, value) entries where entry l of
// a group holds the row's next non-zero dimension ≡ l (mod 4), ascending
// per lane, short lanes padded with (0, +0.0). "Non-zero" means the
// float32 bit pattern is not all zeros, so a row expands back to exactly
// the dense vector it was packed from. Packed rows are the only vector
// representation: an HNSW graph is adjacency over segments' rows and holds
// no vectors of its own. Vectors are never on disk either: a triple's
// vector is a pure function of its text, so a restart re-encodes
// (BuildShards) and only a graph's adjacency is persisted (WriteGraph /
// ReadGraph).
//
// Bit-identity contract. A packed row scored against a query gives the
// same float64, bit for bit, as embed.NormDot over the two dense vectors,
// for finite inputs: the kernel keeps NormDot's four accumulators, its
// per-lane term order and its final association, and the only terms it
// drops or pads are products with a stored +0.0, which cannot change an
// accumulator. The kernel (dot, and dot2 for two queries) is the only one
// that scores: the scan runs it over a segment's candidates and the graph
// over the nodes it visits, so their hits merge by score and tie exactly,
// and replay artifacts stay byte-stable. Where the graph build compares
// node with node it widens one of them as the query; each term is the
// product of two float32s widened to float64, which is exact, so the score
// is NormDot's with its arguments in either order. NormDot itself is the
// reference the tests hold the kernel to, and scores nothing served. The
// kernel walks a row by index, taking each four-entry group as a full
// slice expression of the row (whose values are cut to its dimensions'
// length once), rather than re-slicing the row past each group: the
// compiler then advances one counter per group instead of updating two
// slice headers, which makes every group fewer instructions, and the
// order of the terms — all that bit-identity depends on — is unchanged.
//
// Filter rule. Search scores only the rows that share at least one token
// with the query (inverted index → per-search bitset, ascending row
// order); when fewer than k rows of a block do, it scores every row of
// that block instead. A block is the rows of a view whose position falls
// in [b·S, (b+1)·S), S being the view's block size — its shard size
// (Compose); a plain Index is one block. SearchExact always scans every
// row and is the reference for Search: the filter can only drop rows with
// no token in common with the query, whose cosine under the hashing
// encoder is collision noise. A block's rows are scored into one top-k
// heap in ascending position order, whichever segments hold them, and a
// view's result is MergeTopK over its blocks' lists, so a top-k is a
// function of the view's rows in order and S, not of how the rows are cut
// into segments. BuildShards and Reshard cut at multiples of S, so there
// every block is one segment and is searched as one.
//
// Batch rule. A request's queries are prepared once (embedding, widened
// embedding, distinct tokens) and each block is walked once for all of
// them: every query gets its candidate set by the filter rule, then the
// two unpaired queries whose sets share the most rows are scored together
// — one pass over the union, the two-query kernel dot2 on the shared rows
// and dot on the rest — until no two sets overlap, and the remaining
// queries walk alone. A block scanned whole counts as the set of all its
// rows, so fall-through queries pair with each other first. Pairing
// decides cost only: dot2 gives each query the float64 dot gives it, rows
// reach each query's heap in ascending order either way, and the results
// are those of searching the queries one by one.
//
// Watermark. A view's Token is its row count and, for a Hybrid searching
// a graph, the graph's ID (a graph gets an ID at build, unique for the
// process, and never changes). In a substrate view a row's position is
// its triple ID, and triples are only appended, so a view holding more
// rows than a token holds the token view's rows and then new ones,
// however either view is cut into segments. Since returns the Suffix past
// the watermark: the view's blocks from the one holding it, that block
// counting its earlier rows for the filter rule but scoring only the new
// ones. A block's count of sharing rows only grows, so only the block
// holding the watermark can change mode for a query, and only from
// scanned whole to filtered; the Suffix reports where it did. Where it
// did not, each block list of the view is its list in the token view with
// suffix rows in, every row they evicted scoring below them; so when the
// token view's top k is full and every suffix hit scores below its k-th,
// the view's top k is the token view's, and when a suffix hit scores
// above the k-th, it is not — which lets a cached answer's revalidation
// search only the rows an ingest added (the answer package's incremental
// rule).
package vecstore

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
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
	// BatchSearchWith returns what Search returns for each query, in query
	// order, with the query embeddings supplied by encode (called once per
	// query).
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
	// rows holds triple i's embedding as packed row i.
	rows packedRows
	// inverted maps token -> posting list of triple offsets, ascending.
	inverted map[string][]int32
}

// packedRows stores the non-zero components of a sequence of embedding
// vectors in scoring order (see the package comment): row r is entries
// off[r]:off[r+1] of idx (dimension) and val (value), a whole number of
// four-entry groups with entry l of each group on accumulator lane l.
type packedRows struct {
	off []uint32 // len rows+1 once non-empty; off[0] == 0
	idx []uint8
	val []float32
}

// maxRows keeps every off entry inside uint32: a row packs to at most
// embed.Dim entries.
const maxRows = math.MaxUint32 / embed.Dim

// A dimension must fit idx's uint8.
const _ = uint8(embed.Dim - 1)

// len returns the number of rows.
func (p *packedRows) len() int {
	if len(p.off) == 0 {
		return 0
	}
	return len(p.off) - 1
}

// appendRow packs v as the next row.
func (p *packedRows) appendRow(v *embed.Vector) {
	if len(p.off) == 0 {
		p.off = append(p.off, 0)
	}
	var lane [4][embed.Dim / 4]uint8
	var n [4]int
	groups := 0
	for l := range lane {
		k := 0
		for d := l; d < embed.Dim; d += 4 {
			// Store first and keep the slot only for a non-zero component:
			// no branch to mispredict on row contents. k is below
			// len(lane[l]) whenever another store follows.
			lane[l][k%len(lane[l])] = uint8(d)
			if math.Float32bits(v[d]) != 0 {
				k++
			}
		}
		n[l] = k
		groups = max(groups, k)
	}
	// Extending with zeroed entries lays down the (0, +0.0) padding.
	base := len(p.idx)
	p.idx = append(p.idx, make([]uint8, 4*groups)...)
	p.val = append(p.val, make([]float32, 4*groups)...)
	for l := range lane {
		for g, d := range lane[l][:n[l]] {
			p.idx[base+4*g+l] = d
			p.val[base+4*g+l] = v[d]
		}
	}
	p.off = append(p.off, uint32(len(p.idx)))
}

// reserve makes room for rows more rows so that appending them does not
// regrow the slices. It reserves half of embed.Dim entries a row, which
// the hashing encoder's rows stay under; fuller rows just regrow.
func (p *packedRows) reserve(rows int) {
	p.off = slices.Grow(p.off, rows+1)
	p.idx = slices.Grow(p.idx, rows*embed.Dim/2)
	p.val = slices.Grow(p.val, rows*embed.Dim/2)
}

// expand writes row r's dense form to v: the exact inverse of appendRow,
// since padding is the only stored value whose bits are all zero.
func (p *packedRows) expand(r int, v *embed.Vector) {
	*v = embed.Vector{}
	for e := p.off[r]; e < p.off[r+1]; e++ {
		if x := p.val[e]; math.Float32bits(x) != 0 {
			v[p.idx[e]] = x
		}
	}
}

// widen converts a query to the float64 form dot takes, once per scan
// instead of once per row.
func widen(qv *embed.Vector) (q [embed.Dim]float64) {
	for d, x := range qv {
		q[d] = float64(x)
	}
	return q
}

// row returns row r's entries: its dimensions, and its values cut to the
// same length, so that the kernels' group slices need no bounds checks.
func (p *packedRows) row(r int) (ix []uint8, vs []float32) {
	lo, hi := p.off[r], p.off[r+1]
	ix = p.idx[lo:hi]
	return ix, p.val[lo:hi][:len(ix)]
}

// dot scores row r against a widened query. It is
// embed.NormDot over the sparse row: the same four accumulators, each
// taking its lane's terms in ascending dimension order, and the same
// final association, so the result is bit-identical for finite inputs
// (the terms left out, and the padding, are products with a stored +0.0,
// i.e. ±0, and adding ±0 to an accumulator that started at +0.0 leaves it
// unchanged).
func (p *packedRows) dot(q *[embed.Dim]float64, r int) float64 {
	ix, vs := p.row(r)
	var s0, s1, s2, s3 float64
	for i := 0; i <= len(ix)-4; i += 4 {
		g, v := ix[i:i+4:i+4], vs[i:i+4:i+4]
		s0 += q[g[0]] * float64(v[0])
		s1 += q[g[1]] * float64(v[1])
		s2 += q[g[2]] * float64(v[2])
		s3 += q[g[3]] * float64(v[3])
	}
	return (s0 + s1) + (s2 + s3)
}

// dot2 scores row r against two widened queries in one pass over the
// row: each entry is loaded and widened once and feeds both queries' lane
// accumulators, in dot's term order and final association, so each result
// is bit-identical to dot's for that query.
func (p *packedRows) dot2(qa, qb *[embed.Dim]float64, r int) (float64, float64) {
	ix, vs := p.row(r)
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	for i := 0; i <= len(ix)-4; i += 4 {
		g, v := ix[i:i+4:i+4], vs[i:i+4:i+4]
		v0, v1, v2, v3 := float64(v[0]), float64(v[1]), float64(v[2]), float64(v[3])
		a0 += qa[g[0]] * v0
		b0 += qb[g[0]] * v0
		a1 += qa[g[1]] * v1
		b1 += qb[g[1]] * v1
		a2 += qa[g[2]] * v2
		b2 += qb[g[2]] * v2
		a3 += qa[g[3]] * v3
		b3 += qb[g[3]] * v3
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
}

// Build encodes every triple in the store and constructs the index. The
// encoder must be the same one used to encode queries.
func Build(enc *embed.Encoder, store *kg.Store) *Index {
	return BuildTriples(enc, store.All())
}

// BuildTriples builds an index directly over a triple slice.
func BuildTriples(enc *embed.Encoder, triples []kg.Triple) *Index {
	// Encoding is order-independent, so chunks encode and pack in
	// parallel; newIndex joins them in row order.
	const chunk = 2048
	parts := make([]packedRows, (len(triples)+chunk-1)/chunk)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := triples[c*chunk : min((c+1)*chunk, len(triples))]
			parts[c].reserve(len(part))
			for _, t := range part {
				v := enc.Encode(t.Text())
				parts[c].appendRow(&v)
			}
		}()
	}
	wg.Wait()
	return newIndex(enc, triples, parts...)
}

// Concat joins segments into one over their triples in order, without
// re-encoding: the packed rows are copied and only the inverted token
// index is derived from the triples' text, so the result equals
// BuildTriples over the concatenated triples. The substrate coalesces its
// per-ingest delta segments with it.
func Concat(enc *embed.Encoder, segs ...*Index) *Index {
	var triples []kg.Triple
	parts := make([]packedRows, len(segs))
	for i, seg := range segs {
		triples = append(triples, seg.triples...)
		parts[i] = seg.rows
	}
	return newIndex(enc, triples, parts...)
}

// newIndex assembles an Index over triples from their packed rows, given
// as consecutive parts in row order: it joins the parts into exactly
// sized slices and derives the inverted token index.
func newIndex(enc *embed.Encoder, triples []kg.Triple, parts ...packedRows) *Index {
	if len(triples) > maxRows {
		panic(fmt.Sprintf("vecstore: %d triples in one index (max %d): use BuildSharded", len(triples), maxRows))
	}
	entries := 0
	for i := range parts {
		entries += len(parts[i].idx)
	}
	rows := packedRows{
		off: make([]uint32, 1, len(triples)+1),
		idx: make([]uint8, 0, entries),
		val: make([]float32, 0, entries),
	}
	for i := range parts {
		base := uint32(len(rows.idx))
		for r := 0; r < parts[i].len(); r++ {
			rows.off = append(rows.off, base+parts[i].off[r+1])
		}
		rows.idx = append(rows.idx, parts[i].idx...)
		rows.val = append(rows.val, parts[i].val...)
	}
	idx := &Index{enc: enc, triples: triples, rows: rows, inverted: make(map[string][]int32)}
	for i, t := range triples {
		for _, tok := range distinctTokens(t.Text()) {
			post, ok := idx.inverted[tok]
			if !ok {
				// The token may be a substring of the triple's text; the key
				// must not keep that alive.
				tok = strings.Clone(tok)
			}
			idx.inverted[tok] = append(post, int32(i))
		}
	}
	return idx
}

// distinctTokens tokenises text and drops repeated tokens, keeping first
// occurrences in order. A triple or query has about a dozen tokens, so
// the scan beats a map.
func distinctTokens(text string) []string {
	toks := embed.Tokenize(text)
	out := toks[:0]
	for _, tok := range toks {
		if !slices.Contains(out, tok) {
			out = append(out, tok)
		}
	}
	return out
}

// Len returns the number of indexed triples.
func (idx *Index) Len() int { return len(idx.triples) }

// Encoder returns the encoder the index was built with.
func (idx *Index) Encoder() *embed.Encoder { return idx.enc }

// Search returns the top-k triples most similar to the query text, in
// descending score order, using the token-filtered path. If fewer than k
// rows share a token with the query it falls back to the exact scan, so
// the caller always gets k results when the index has them.
func (idx *Index) Search(query string, k int) []Hit {
	return idx.BatchSearchWith(idx.enc.Encode, []string{query}, k)[0]
}

// SearchExact returns the top-k results by brute-force scan over the whole
// index. It is the correctness reference for Search.
func (idx *Index) SearchExact(query string, k int) []Hit {
	return idx.SearchVector(idx.enc.Encode(query), k)
}

// SearchVector searches with a pre-encoded query vector over all triples.
func (idx *Index) SearchVector(qv embed.Vector, k int) []Hit {
	return idx.searchVec(qv, k, idx.whole()[0].all())
}

// BatchSearchWith searches every query with the token-filtered path in
// one walk of the index (see the package comment's batch rule) and returns
// results in query order, with the query embeddings supplied by encode
// instead of the index's encoder — the hook for callers that memoise
// embeddings (internal/core's session memo). encode must be consistent
// with the index's encoder.
func (idx *Index) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]Hit {
	return (&block{rows: idx.whole()}).scan(prepare(encode, queries), k, nil)
}

// whole returns the index's rows as spans: one block, the whole segment.
func (idx *Index) whole() spans { return spans{{idx, 0, len(idx.triples)}} }

// rowSet is a bitset over an index's rows: bit r%64 of word r/64.
type rowSet []uint64

// count returns the number of rows in the set.
func (s rowSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// shared returns the number of rows in both s and t, sets over the same
// index.
func (s rowSet) shared(t rowSet) int {
	n := 0
	for i, w := range s {
		n += bits.OnesCount64(w & t[i])
	}
	return n
}

// searchVec scores the rows of subset in ascending row order and returns
// the top k.
func (idx *Index) searchVec(qv embed.Vector, k int, subset rowSet) []Hit {
	if k <= 0 || qv.IsZero() {
		return nil
	}
	q := widen(&qv)
	ss := idx.whole()
	best := make(topK, 0, min(k, len(idx.triples)))
	ss[0].scan(&q, subset, 0, &best)
	return ss.hits(ss.rank(&best))
}

// HitBefore is the deterministic result order every Searcher produces:
// score descending, equal scores broken by triple surface form ascending.
func HitBefore(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Triple.Key() < b.Triple.Key()
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
// between the graph and the exact fallback, so a benchmark run can
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
