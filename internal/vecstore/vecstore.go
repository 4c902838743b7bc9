// Package vecstore provides the vectorised triple index used by the
// pipeline's Semantic Query step: every KG triple is encoded once, as it
// is appended to an Arena, and pseudo-triples are matched against a view
// of the arena by cosine similarity to produce the temporary graph Gt.
//
// Row layout. The hashing encoder's vectors are sparse (about a hundred
// non-zero components of embed.Dim), so an Arena keeps only each row's
// non-zero components, in the order the scoring kernel consumes them
// (packedRows): groups of four entries where entry l of a group holds the
// row's next non-zero dimension ≡ l (mod 4), ascending per lane, short
// lanes padded. An entry is two bytes: its dimension, and a code into the
// row's value table, which holds each distinct stored value once, widened
// to float64 when the row is packed. The encoder's values are few — about
// twenty distinct ones a row — so a row costs two bytes an entry and eight
// a distinct value, where a float32 value in every entry cost five bytes an
// entry. Padding is (0, code 0), and a row with padding has +0.0 as code 0;
// such a row has at most embed.Dim-1 non-zero components, so with +0.0 it
// needs at most 256 codes, and a row without padding at most embed.Dim: a
// code fits a byte. "Non-zero" means the float32 bit pattern is not all
// zeros, so a row expands back to exactly the dense vector it was packed
// from. The rows are stored in chunks of S rows, each with the token index
// of its rows; an append fills the last chunk and starts the next, and
// never moves a row. An arena holds no triple: a view is made over the
// triples its rows were appended from (Arena.View; a substrate passes its
// store's prefix, shared, not copied) and resolves a hit's row through
// them. Packed rows are the only vector representation: an HNSW graph is
// adjacency over a view's rows and holds no vectors of its own. Vectors are
// never on disk either: a triple's vector is a pure function of its text,
// so a restart re-encodes (Arena.Append) and only a graph's adjacency is
// persisted (WriteGraph / ReadGraph).
//
// Bit-identity contract. A packed row scored against a query gives the
// same float64, bit for bit, as embed.NormDot over the two dense vectors,
// for finite inputs: the kernel keeps NormDot's four accumulators, its
// per-lane term order and its final association; each term is the
// widened query component times the table's value, which is the stored
// float32 widened once, the same float64 NormDot widens it to per term;
// and the only terms it drops or pads are products with a stored +0.0,
// which cannot change an accumulator. The kernel (dot, and dot2 for two
// queries) is the only one that scores: the scan runs it over a block's
// candidates and the graph over the nodes it visits, so their hits merge
// by score and tie exactly, and replay artifacts stay byte-stable. Where
// the graph build compares node with node it widens one of them as the
// query; each term is the product of two float32s widened to float64,
// which is exact, so the score is NormDot's with its arguments in either
// order. NormDot itself is the reference the tests hold the kernel to,
// and scores nothing served. The kernel walks a row by index, taking each
// four-entry group as a full slice expression of the row's dimensions and
// of its codes (cut to the same length once) ending at the index, rather
// than re-slicing the row past each group: the compiler then advances one
// counter per group, with one bounds check for both slices, instead of
// updating two slice headers. It takes the row's table as an array of 256
// values, so a byte code indexes it without a bounds check (the table's
// storage keeps that much capacity past every table's start), and checks
// the queries for nil once a row rather than once a group. None of this
// changes the order of the terms, which is all bit-identity depends on.
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
// off[r]:off[r+1] of idx (dimension) and code, a whole number of
// four-entry groups with entry l of each group on accumulator lane l, and
// its value table, vals[tab[r]:tab[r+1]]: entry e's value is the table's
// code[e]-th.
type packedRows struct {
	off  []uint32 // len rows+1 once non-empty; off[0] == 0
	idx  []uint8
	code []uint8
	tab  []uint32 // len rows+1 once non-empty; tab[0] == 0
	// vals holds the rows' tables in row order, and always at least
	// tableSpan values of capacity past a table's start (see row).
	vals []float64
}

// tableSpan is the most values a row's table holds: a code is a uint8.
const tableSpan = 256

// maxRows keeps every off and tab entry inside uint32: a row packs to at
// most embed.Dim entries and as many table values.
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
		p.off, p.tab = append(p.off, 0), append(p.tab, 0)
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
	// The table's values as float32 bits. A row with padding has at most
	// embed.Dim-1 non-zero components, so +0.0 and they fit tableSpan
	// codes; +0.0 is code 0, which the zeroed padding entries carry.
	var table [tableSpan]uint32
	size := 0
	if min(n[0], n[1], n[2], n[3]) < groups {
		size = 1
	}
	// Extending with zeroed entries lays down the (0, code 0) padding.
	base := len(p.idx)
	p.idx = append(p.idx, make([]uint8, 4*groups)...)
	p.code = append(p.code, make([]uint8, 4*groups)...)
	for g := range groups {
		for l := range lane {
			if g >= n[l] {
				continue
			}
			d := lane[l][g]
			x := math.Float32bits(v[d])
			c := slices.Index(table[:size], x)
			if c < 0 {
				c, table[size] = size, x
				size++
			}
			p.idx[base+4*g+l] = d
			p.code[base+4*g+l] = uint8(c)
		}
	}
	p.vals = slices.Grow(p.vals, size+tableSpan)
	for _, x := range table[:size] {
		p.vals = append(p.vals, float64(math.Float32frombits(x)))
	}
	p.off = append(p.off, uint32(len(p.idx)))
	p.tab = append(p.tab, uint32(len(p.vals)))
}

// reserve makes room for rows more rows so that appending them does not
// regrow the slices. It reserves half of embed.Dim entries and an eighth
// of tableSpan values a row, which the hashing encoder's rows stay under;
// fuller rows just regrow.
func (p *packedRows) reserve(rows int) {
	p.off = slices.Grow(p.off, rows+1)
	p.tab = slices.Grow(p.tab, rows+1)
	p.idx = slices.Grow(p.idx, rows*embed.Dim/2)
	p.code = slices.Grow(p.code, rows*embed.Dim/2)
	p.vals = slices.Grow(p.vals, rows*tableSpan/8+tableSpan)
}

// appendRows appends rows [lo, hi) of src, growing the slices once for
// all of them.
func (p *packedRows) appendRows(src *packedRows, lo, hi int) {
	if lo == hi {
		return
	}
	if len(p.off) == 0 {
		p.off, p.tab = append(p.off, 0), append(p.tab, 0)
	}
	from, to := src.off[lo], src.off[hi]
	at := uint32(len(p.idx))
	for _, end := range src.off[lo+1 : hi+1] {
		p.off = append(p.off, at+end-from)
	}
	p.idx = append(p.idx, src.idx[from:to]...)
	p.code = append(p.code, src.code[from:to]...)
	from, to = src.tab[lo], src.tab[hi]
	at = uint32(len(p.vals))
	for _, end := range src.tab[lo+1 : hi+1] {
		p.tab = append(p.tab, at+end-from)
	}
	p.vals = append(slices.Grow(p.vals, int(to-from)+tableSpan), src.vals[from:to]...)
}

// prefix returns the first n rows, n > 0, with every slice's capacity
// cut to its length — vals's to tableSpan values past it, which row
// needs and nothing of the prefix reads or writes — so nothing appended
// to it can reach p's storage.
func (p *packedRows) prefix(n int) packedRows {
	e, t := p.off[n], p.tab[n]
	return packedRows{
		off: p.off[: n+1 : n+1], idx: p.idx[:e:e], code: p.code[:e:e],
		tab: p.tab[: n+1 : n+1], vals: p.vals[: t : t+tableSpan],
	}
}

// expand writes row r's dense form to v: the exact inverse of appendRow,
// since padding is the only entry whose value's bits are all zero, and
// widening a float32 and narrowing it back gives its bits back (a
// signalling NaN comes back quiet).
func (p *packedRows) expand(r int, v *embed.Vector) {
	*v = embed.Vector{}
	ix, cs, t := p.row(r)
	for e, d := range ix {
		if x := t[cs[e]]; math.Float64bits(x) != 0 {
			v[d] = float32(x)
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

// row returns row r's entries — its dimensions, and its codes cut to the
// same length, so that the kernels' group slices need no bounds checks —
// and its value table as an array of tableSpan values, so that no code
// needs one either. The values past the table are other rows' tables or
// spare capacity, which no code of the row reaches.
func (p *packedRows) row(r int) (ix, cs []uint8, t *[tableSpan]float64) {
	lo, hi := p.off[r], p.off[r+1]
	ix = p.idx[lo:hi]
	at := p.tab[r]
	return ix, p.code[lo:hi][:len(ix)], (*[tableSpan]float64)(p.vals[at : at+tableSpan])
}

// dot scores row r against a widened query. It is
// embed.NormDot over the sparse row: the same four accumulators, each
// taking its lane's terms in ascending dimension order, and the same
// final association, so the result is bit-identical for finite inputs
// (the table holds each value widened, the same float64 NormDot's
// product takes; the terms left out, and the padding, are products with
// a stored +0.0, i.e. ±0, and adding ±0 to an accumulator that started at
// +0.0 leaves it unchanged).
func (p *packedRows) dot(q *[embed.Dim]float64, r int) float64 {
	ix, cs, t := p.row(r)
	_ = q[0] // q's nil check, here rather than in every group
	var s0, s1, s2, s3 float64
	for i := 4; i <= len(ix); i += 4 {
		g, c := ix[i-4:i:i], cs[i-4:i:i]
		s0 += q[g[0]] * t[c[0]]
		s1 += q[g[1]] * t[c[1]]
		s2 += q[g[2]] * t[c[2]]
		s3 += q[g[3]] * t[c[3]]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot2 scores row r against two widened queries in one pass over the
// row: each entry's value is loaded once and feeds both queries' lane
// accumulators, in dot's term order and final association, so each result
// is bit-identical to dot's for that query.
func (p *packedRows) dot2(qa, qb *[embed.Dim]float64, r int) (float64, float64) {
	ix, cs, t := p.row(r)
	_, _ = qa[0], qb[0] // their nil checks, here rather than in every group
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	for i := 4; i <= len(ix); i += 4 {
		g, c := ix[i-4:i:i], cs[i-4:i:i]
		v0, v1, v2, v3 := t[c[0]], t[c[1]], t[c[2]], t[c[3]]
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
