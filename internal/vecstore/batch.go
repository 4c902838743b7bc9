package vecstore

import (
	"math/bits"
	"slices"
	"strings"

	"repro/internal/embed"
	"repro/internal/kg"
)

// batchQuery is one query of a request in the form every block scan
// takes, prepared once per request rather than once per block.
type batchQuery struct {
	vec  embed.Vector       // the embedding encode supplied
	wide [embed.Dim]float64 // vec widened for dot and dot2
	zero bool               // vec is the zero vector: the query matches nothing
	toks []string           // the text's distinct tokens
}

// prepare embeds, widens and tokenises each query, calling encode once a
// query in query order.
func prepare(encode func(string) embed.Vector, queries []string) []batchQuery {
	qs := make([]batchQuery, len(queries))
	for i, text := range queries {
		q := &qs[i]
		q.vec = encode(text)
		q.zero = q.vec.IsZero()
		q.wide = widen(&q.vec)
		q.toks = distinctTokens(text)
	}
	return qs
}

// span is rows [lo, hi) of one chunk of a view, counted from the
// chunk's first row, which is arena row at.
type span struct {
	c      *chunkView
	at     int
	lo, hi int
}

func (sp span) len() int { return sp.hi - sp.lo }

// spansOf cuts arena rows [lo, hi) of chunks, chunks of size rows, at
// the chunk boundaries; nil when the range is empty.
func spansOf(chunks []chunkView, size, lo, hi int) spans {
	var ss spans
	for c := lo / size; lo < hi && c*size < hi; c++ {
		at := c * size
		ss = append(ss, span{&chunks[c], at, max(lo, at) - at, min(hi, at+size) - at})
	}
	return ss
}

// candidates returns the span's rows sharing at least one of the tokens,
// bit j standing for row lo+j, or nil when there are none to share.
func (sp span) candidates(toks []string) rowSet {
	if len(toks) == 0 {
		return nil
	}
	set := make(rowSet, (sp.len()+63)/64)
	for _, tok := range toks {
		post := sp.c.posting(tok)
		if sp.lo > 0 {
			i, _ := slices.BinarySearch(post, int32(sp.lo))
			post = post[i:]
		}
		for _, off := range post {
			if int(off) >= sp.hi {
				break
			}
			j := int(off) - sp.lo
			set[j>>6] |= 1 << (j & 63)
		}
	}
	return set
}

// all returns the set of every row of the span.
func (sp span) all() rowSet {
	n := sp.len()
	set := make(rowSet, (n+63)/64)
	for i := range set {
		set[i] = ^uint64(0)
	}
	if n&63 != 0 {
		set[len(set)-1] = 1<<(n&63) - 1
	}
	return set
}

// scan offers best every row of set, a set over the span's rows, with its
// score against q, in ascending row order; a row is offered as its arena
// row.
func (sp span) scan(q *[embed.Dim]float64, set rowSet, best *topK) {
	rows, first := &sp.c.rows, sp.at+sp.lo
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			j := i<<6 | bits.TrailingZeros64(w)
			best.offer(rows.dot(q, sp.lo+j), first+j)
		}
	}
}

// scan2 is scan for two queries at once: one ascending pass over the
// union of their sets, each row offered to the queries whose set holds
// it, rows in both scored by one dot2.
func (sp span) scan2(qa, qb *[embed.Dim]float64, a, b rowSet, bestA, bestB *topK) {
	rows, first := &sp.c.rows, sp.at+sp.lo
	for i, wa := range a {
		wb := b[i]
		for w := wa | wb; w != 0; w &= w - 1 {
			j := i<<6 | bits.TrailingZeros64(w)
			switch bit := w & -w; {
			case wa&wb&bit != 0:
				sa, sb := rows.dot2(qa, qb, sp.lo+j)
				bestA.offer(sa, first+j)
				bestB.offer(sb, first+j)
			case wa&bit != 0:
				bestA.offer(rows.dot(qa, sp.lo+j), first+j)
			default:
				bestB.offer(rows.dot(qb, sp.lo+j), first+j)
			}
		}
	}
}

// spans are rows of a view in row order.
type spans []span

// triple returns the triple at arena row pos, one of the spans' rows.
func (ss spans) triple(pos int32) kg.Triple {
	for _, sp := range ss {
		if r := int(pos) - sp.at; r >= sp.lo && r < sp.hi {
			return sp.c.triples[r]
		}
	}
	panic("vecstore: row outside the spans")
}

// rows returns the number of rows.
func (ss spans) rows() int {
	n := 0
	for _, sp := range ss {
		n += sp.len()
	}
	return n
}

// count returns the number of rows sharing at least one of the tokens.
func (ss spans) count(toks []string) int {
	n := 0
	for _, sp := range ss {
		n += sp.candidates(toks).count()
	}
	return n
}

// walk is one query's part in a block's batch scan.
type walk struct {
	query int
	sets  []rowSet // per span of the block: the rows to score
	best  topK
	done  bool // the rows have been scored
}

// scanBlock is the search of one block for every query of qs that is not
// the zero vector: it writes query i's top k by the filter rule to out[i],
// walking the rows by the batch rule (both in the package comment). The
// block's rows are pre's then ss's: pre's rows count towards each query's
// mode but are not scored, and flipped[i] is set when query i has fewer
// than k sharing rows in pre and k or more in the block.
func scanBlock(pre, ss spans, qs []batchQuery, k int, out [][]Hit, flipped []bool) {
	walks := make([]walk, 0, len(qs))
	sets := make([]rowSet, len(qs)*len(ss))
	var all []rowSet
	for i := range qs {
		if qs[i].zero {
			continue
		}
		n := len(walks) * len(ss)
		w := walk{query: i, sets: sets[n : n+len(ss) : n+len(ss)]}
		sharing := 0
		for j, sp := range ss {
			w.sets[j] = sp.candidates(qs[i].toks)
			sharing += w.sets[j].count()
		}
		if len(pre) > 0 {
			before := pre.count(qs[i].toks)
			flipped[i] = before < k && before+sharing >= k
			sharing += before
		}
		if sharing < k {
			// Not enough token-overlapping rows to fill k slots: scan
			// everything so the caller still gets k results.
			if all == nil {
				all = make([]rowSet, len(ss))
				for j, sp := range ss {
					all[j] = sp.all()
				}
			}
			copy(w.sets, all)
		}
		walks = append(walks, w)
	}
	// One heap per walk, carved out of one allocation.
	n, depth := len(walks), min(k, ss.rows())
	heaps := make([]scored, n*depth)
	for a := range walks {
		walks[a].best = heaps[a*depth : a*depth : (a+1)*depth]
	}

	// shared[a*n+b], a < b: the number of rows both walks score.
	shared := make([]int, n*n)
	for a := range walks {
		for b := a + 1; b < n; b++ {
			for j := range ss {
				shared[a*n+b] += walks[a].sets[j].shared(walks[b].sets[j])
			}
		}
	}
	for {
		var wa, wb *walk
		most := 0
		for a := range walks {
			for b := a + 1; b < n; b++ {
				if c := shared[a*n+b]; c > most && !walks[a].done && !walks[b].done {
					wa, wb, most = &walks[a], &walks[b], c
				}
			}
		}
		if most == 0 {
			break
		}
		for j, sp := range ss {
			sp.scan2(&qs[wa.query].wide, &qs[wb.query].wide, wa.sets[j], wb.sets[j], &wa.best, &wb.best)
		}
		wa.done, wb.done = true, true
	}
	for a := range walks {
		w := &walks[a]
		if !w.done {
			for j, sp := range ss {
				sp.scan(&qs[w.query].wide, w.sets[j], &w.best)
			}
		}
		out[w.query] = ss.hits(ss.rank(&w.best))
	}
}

// scored is a row and its score against one query.
type scored struct {
	score float64
	row   int32
}

// topK keeps the k best-scoring rows offered so far, k being the slice's
// capacity, in a min-heap over scores: the root is the row the next better
// one evicts. The sift steps are container/heap's under a score-only Less,
// comparison for comparison, because with equal scores in play they decide
// which rows survive: an equal score never evicts (first seen wins at the
// boundary), and which of several equal minima sits at the root when a
// better row arrives is whatever the sift order left there.
type topK []scored

// offer considers one more row.
func (t *topK) offer(score float64, row int) {
	h := *t
	switch {
	case len(h) < cap(h):
		h = append(h, scored{score, int32(row)})
		h.up(len(h) - 1)
		*t = h
	case score > h[0].score:
		h[0] = scored{score, int32(row)}
		h.down(0, len(h))
	}
}

// pop removes and returns the lowest-scoring row.
func (t *topK) pop() scored {
	h := *t
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h.down(0, n)
	*t = h[:n]
	return h[n]
}

func (h topK) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].score < h[i].score) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h topK) down(i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].score < h[j].score {
			j = j2
		}
		if !(h[j].score < h[i].score) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// rank empties best, a heap over rows of ss, and returns its rows in
// the order every Searcher produces, in place in best's storage: popping
// leaves them by score descending, and a stable sort breaks equal scores
// by triple surface form, as HitBefore orders Hits.
func (ss spans) rank(best *topK) []scored {
	ranked := *best
	for len(*best) > 0 {
		best.pop()
	}
	slices.SortStableFunc(ranked, func(a, b scored) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return strings.Compare(ss.triple(a.row).Key(), ss.triple(b.row).Key())
	})
	return ranked
}

// hits builds a result list from ranked rows of ss, into a fresh
// slice. Only here does a row become a Hit.
func (ss spans) hits(ranked []scored) []Hit {
	out := make([]Hit, len(ranked))
	for i, s := range ranked {
		out[i] = Hit{Triple: ss.triple(s.row), Score: s.score}
	}
	return out
}
