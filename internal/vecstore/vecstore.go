// Package vecstore provides the vectorised triple index used by the
// pipeline's Semantic Query step: every KG triple is encoded once, as it
// is appended to an Arena, and pseudo-triples are matched against a view
// of the arena by cosine similarity to produce the temporary graph Gt.
//
// Row layout. The hashing encoder's vectors are sparse (about a hundred
// non-zero components of embed.Dim), so an Arena keeps only each row's
// non-zero components, in the order the scoring kernel consumes them
// (packedRows): groups of four (dimension, value) entries where entry l of
// a group holds the row's next non-zero dimension ≡ l (mod 4), ascending
// per lane, short lanes padded with (0, +0.0). "Non-zero" means the
// float32 bit pattern is not all zeros, so a row expands back to exactly
// the dense vector it was packed from. The rows are stored in chunks of S
// rows, each with the token index of its rows; an append fills the last
// chunk and starts the next, and never moves a row. Packed rows are the
// only vector representation: an HNSW graph is adjacency over an arena's
// rows and holds no vectors of its own. Vectors are never on disk either:
// a triple's vector is a pure function of its text, so a restart
// re-encodes (Arena.Append) and only a graph's adjacency is persisted
// (WriteGraph / ReadGraph).
//
// Bit-identity contract. A packed row scored against a query gives the
// same float64, bit for bit, as embed.NormDot over the two dense vectors,
// for finite inputs: the kernel keeps NormDot's four accumulators, its
// per-lane term order and its final association, and the only terms it
// drops or pads are products with a stored +0.0, which cannot change an
// accumulator. The kernel (dot, and dot2 for two queries) is the only one
// that scores: the scan runs it over a block's candidates and the graph
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
// with the query (token index → per-search bitset, ascending row order);
// when fewer than k rows of a block do, it scores every row of that block
// instead. A block is the rows of a view whose arena row falls in
// [o + b·S, o + (b+1)·S), S being the arena's chunk size and o the view's
// origin: 0 for an exact view (Arena.View), whose blocks are therefore
// its chunks, and the first row past the graph for a Hybrid's exact tail,
// whose blocks may straddle two chunks. BuildTriples makes S the row
// count, so a plain index is one block. SearchExact always scans every row
// and is the reference for Search: the filter can only drop rows with no
// token in common with the query, whose cosine under the hashing encoder
// is collision noise. A block's rows are scored into one top-k heap in
// ascending row order, and a view's result is MergeTopK over its blocks'
// lists, so a top-k is a function of the view's rows in order, S and o.
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
// process, and never changes). In a substrate view a row is its triple
// ID, and an arena only appends, so a view holding more rows than a token
// holds the token view's rows and then new ones. Since returns the Suffix
// past the watermark: the view's blocks from the one holding it, that
// block counting its earlier rows for the filter rule but scoring only the
// new ones. A block's count of sharing rows only grows, so only the block
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
	"math"
	"math/bits"
	"slices"

	"repro/internal/embed"
	"repro/internal/kg"
)

// Hit is one search result: the matched triple and its cosine score.
type Hit struct {
	Triple kg.Triple
	Score  float64
}

// Searcher is what a QA method searches a vector substrate with: a batch
// of queries at one k, embedded by the caller, and the encoder to embed
// them with. The exact view (Sharded), the Hybrid and the HNSW graph
// implement it; the pipeline and the serving layers program against it,
// so any consistent snapshot of a vector substrate serves. A search's
// result is a function of the view's rows, which is what lets a cached
// answer replay its searches against a later snapshot (the answer
// package's read log). Implementations are safe for concurrent searches.
type Searcher interface {
	// Encoder returns the encoder queries must be embedded with.
	Encoder() *embed.Encoder
	// BatchSearchWith returns the top-k triples most similar to each
	// query, in query order, with the query embeddings supplied by encode
	// (called once per query).
	BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]Hit
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

// appendRows appends rows [lo, hi) of src, growing the slices once for
// all of them.
func (p *packedRows) appendRows(src *packedRows, lo, hi int) {
	if lo == hi {
		return
	}
	if len(p.off) == 0 {
		p.off = append(p.off, 0)
	}
	from, to := src.off[lo], src.off[hi]
	at := uint32(len(p.idx))
	for _, end := range src.off[lo+1 : hi+1] {
		p.off = append(p.off, at+end-from)
	}
	p.idx = append(p.idx, src.idx[from:to]...)
	p.val = append(p.val, src.val[from:to]...)
}

// prefix returns the first n rows, n > 0, with every slice's capacity
// cut to its length, so nothing appended to it can reach p's storage.
func (p *packedRows) prefix(n int) packedRows {
	e := p.off[n]
	return packedRows{off: p.off[: n+1 : n+1], idx: p.idx[:e:e], val: p.val[:e:e]}
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

// rowSet is a bitset over a span's rows: bit r%64 of word r/64.
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
// span.
func (s rowSet) shared(t rowSet) int {
	n := 0
	for i, w := range s {
		n += bits.OnesCount64(w & t[i])
	}
	return n
}

// HitBefore is the deterministic result order every Searcher produces:
// score descending, equal scores broken by triple surface form ascending.
func HitBefore(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Triple.Key() < b.Triple.Key()
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
