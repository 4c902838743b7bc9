package vecstore

import (
	"math/bits"
	"slices"
	"strings"

	"repro/internal/embed"
)

// batchQuery is one query of a request in the form every segment scan
// takes, prepared once per request rather than once per segment.
type batchQuery struct {
	text string             // the query as the caller gave it: the memo key
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
		q.text = text
		q.vec = encode(text)
		q.zero = q.vec.IsZero()
		q.wide = widen(&q.vec)
		q.toks = distinctTokens(text)
	}
	return qs
}

// walk is one query's part in a segment's batch scan.
type walk struct {
	query int    // position in the batch
	set   rowSet // the rows to score
	best  topK
	done  bool // the rows have been scored
}

// scanBatch is the token-filtered search of one segment for every query
// of a request: out[i] is query i's top k by the filter rule, and the rows
// are walked by the batch rule (both in the package comment). With memo
// non-nil the segment's memo answers the queries it holds and stores the
// results of the rest (the memo rule), counting into memo.
func (idx *Index) scanBatch(qs []batchQuery, k int, memo *MemoCounters) [][]Hit {
	out := make([][]Hit, len(qs))
	if k <= 0 || memo != nil && idx.recall(qs, k, out, memo) == 0 {
		return out
	}
	walks := make([]walk, 0, len(qs))
	var all rowSet
	for i := range qs {
		if qs[i].zero || out[i] != nil {
			continue
		}
		set := idx.candidates(qs[i].toks)
		if set.count() < k {
			// Not enough token-overlapping rows to fill k slots: scan
			// everything so the caller still gets k results.
			if all == nil {
				all = idx.allRows()
			}
			set = all
		}
		walks = append(walks, walk{query: i, set: set})
	}
	// One heap per walk, carved out of one allocation.
	n, depth := len(walks), min(k, len(idx.triples))
	heaps := make([]scored, n*depth)
	for a := range walks {
		walks[a].best = heaps[a*depth : a*depth : (a+1)*depth]
	}

	// shared[a*n+b], a < b: the number of rows both walks score.
	shared := make([]int, n*n)
	for a := range walks {
		for b := a + 1; b < n; b++ {
			shared[a*n+b] = walks[a].set.shared(walks[b].set)
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
		idx.scan2(&qs[wa.query].wide, &qs[wb.query].wide, wa.set, wb.set, &wa.best, &wb.best)
		wa.done, wb.done = true, true
	}
	for a := range walks {
		w := &walks[a]
		if !w.done {
			idx.scan(&qs[w.query].wide, w.set, &w.best)
		}
		ranked := idx.rank(&w.best)
		out[w.query] = idx.hits(ranked)
		if memo != nil {
			idx.remember(qs[w.query].text, k, ranked)
		}
	}
	return out
}

// scan offers best every row of set with its score against q, in
// ascending row order.
func (idx *Index) scan(q *[embed.Dim]float64, set rowSet, best *topK) {
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			r := i<<6 | bits.TrailingZeros64(w)
			best.offer(idx.rows.dot(q, r), r)
		}
	}
}

// scan2 is scan for two queries at once: one ascending pass over the
// union of their sets, each row offered to the queries whose set holds
// it, rows in both scored by one dot2.
func (idx *Index) scan2(qa, qb *[embed.Dim]float64, a, b rowSet, bestA, bestB *topK) {
	for i, wa := range a {
		wb := b[i]
		for w := wa | wb; w != 0; w &= w - 1 {
			r := i<<6 | bits.TrailingZeros64(w)
			switch bit := w & -w; {
			case wa&wb&bit != 0:
				sa, sb := idx.rows.dot2(qa, qb, r)
				bestA.offer(sa, r)
				bestB.offer(sb, r)
			case wa&bit != 0:
				bestA.offer(idx.rows.dot(qa, r), r)
			default:
				bestB.offer(idx.rows.dot(qb, r), r)
			}
		}
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

// rank empties best and returns its rows in the order every Searcher
// produces, in place in best's storage: popping leaves them by score
// descending, and a stable sort breaks equal scores by triple surface
// form, as HitBefore orders Hits.
func (idx *Index) rank(best *topK) []scored {
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
		return strings.Compare(idx.triples[a.row].Key(), idx.triples[b.row].Key())
	})
	return ranked
}

// hits builds the segment's result list from ranked rows, into a fresh
// slice. Only here does a row become a Hit.
func (idx *Index) hits(ranked []scored) []Hit {
	out := make([]Hit, len(ranked))
	for i, s := range ranked {
		out[i] = Hit{Triple: idx.triples[s.row], Score: s.score}
	}
	return out
}
