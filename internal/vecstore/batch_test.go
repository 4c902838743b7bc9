package vecstore

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/kg"
)

// whole returns the rows of a one-block view built by BuildTriples as
// one span.
func whole(v *Sharded) span { return v.blocks[0].rows[0] }

// oneBlockViews cuts triples into blocks of size rows, each built as a
// view of its own.
func oneBlockViews(enc *embed.Encoder, triples []kg.Triple, size int) []*Sharded {
	var views []*Sharded
	for lo := 0; lo < len(triples); lo += size {
		views = append(views, BuildTriples(enc, triples[lo:min(lo+size, len(triples))]))
	}
	return views
}

// referenceSearch is the filtered search of one query as it ran before
// blocks were walked once per batch: per block, given as a view of its
// own, the candidate set or — below k candidates — every row, scanned
// alone, then the merge.
func referenceSearch(blocks []*Sharded, query string, qv embed.Vector, k int) []Hit {
	if k <= 0 || qv.IsZero() {
		return nil
	}
	q := widen(&qv)
	per := make([][]Hit, len(blocks))
	for i, b := range blocks {
		sp := whole(b)
		cands := sp.candidates(distinctTokens(query))
		if cands.count() < k {
			cands = sp.all()
		}
		best := make(topK, 0, min(k, sp.len()))
		sp.scan(&q, cands, &best)
		ss := spans{sp}
		per[i] = ss.hits(ss.rank(&best))
	}
	return MergeTopK(per, k)
}

// diffHits describes the first difference between got and want — triples,
// order or score bits — or returns "" when there is none.
func diffHits(got, want []Hit) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d hits, want %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Triple != want[i].Triple || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Sprintf("hit %d: %v@%x, want %v@%x", i, got[i].Triple, math.Float64bits(got[i].Score), want[i].Triple, math.Float64bits(want[i].Score))
		}
	}
	return ""
}

// requireSameHits fails unless got is want: same triples in the same
// order with bit-equal scores.
func requireSameHits(t testing.TB, what string, got, want []Hit) {
	t.Helper()
	if d := diffHits(got, want); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

// batchesOf cuts queries into consecutive batches of size n.
func batchesOf(queries []string, n int) [][]string {
	var out [][]string
	for lo := 0; lo < len(queries); lo += n {
		out = append(out, queries[lo:min(lo+n, len(queries))])
	}
	return out
}

// requireBatchMatchesReference runs queries through s in batches of every
// size and compares each result with the one-query-at-a-time reference
// over blocks, the blocks s serves.
func requireBatchMatchesReference(t *testing.T, what string, s Searcher, blocks []*Sharded, queries []string, k int) {
	t.Helper()
	enc := s.Encoder()
	for _, size := range []int{1, 2, 3, 4, 13} {
		for b, batch := range batchesOf(queries, size) {
			got := s.BatchSearchWith(enc.Encode, batch, k)
			if len(got) != len(batch) {
				t.Fatalf("%s size %d batch %d: %d result lists for %d queries", what, size, b, len(got), len(batch))
			}
			for i, q := range batch {
				requireSameHits(t, fmt.Sprintf("%s size %d batch %d %q", what, size, b, q), got[i], referenceSearch(blocks, q, enc.Encode(q), k))
			}
		}
	}
}

// TestBatchScanMatchesPerQueryReference is the equivalence the batch scan
// is held to, on the data the server scans: both quick-world stores,
// real pseudo-triples, every batch size, block sizes that give one,
// three and eleven blocks, and a one-block view.
func TestBatchScanMatchesPerQueryReference(t *testing.T) {
	enc := embed.NewEncoder()
	queries := pseudoTriples(t)
	for _, st := range quickWorldStores(t) {
		triples := st.All()
		for _, shardSize := range []int{4096, 512, 100} {
			what := fmt.Sprintf("%v/%d-row blocks", st.Source(), shardSize)
			requireBatchMatchesReference(t, what, BuildSharded(enc, triples, shardSize), oneBlockViews(enc, triples, shardSize), queries, 10)
		}
		idx := BuildTriples(enc, triples)
		requireBatchMatchesReference(t, fmt.Sprintf("%v/one block", st.Source()), idx, []*Sharded{idx}, queries, 10)
	}
}

// TestBatchScanEdgeCases covers the batches whose shape, not whose data,
// could trip the scan.
func TestBatchScanEdgeCases(t *testing.T) {
	enc := embed.NewEncoder()
	s := BuildSharded(enc, corpus(300), 64)
	blocks := oneBlockViews(enc, corpus(300), 64)
	check := func(what string, batch []string, k int) {
		t.Helper()
		got := s.BatchSearchWith(enc.Encode, batch, k)
		if got == nil || len(got) != len(batch) {
			t.Fatalf("%s: %d result lists (nil: %v) for %d queries", what, len(got), got == nil, len(batch))
		}
		for i, q := range batch {
			requireSameHits(t, fmt.Sprintf("%s %q", what, q), got[i], referenceSearch(blocks, q, enc.Encode(q), k))
		}
	}
	check("identical queries", []string{"Lake Superior 3 area", "Lake Superior 3 area", "Beijing 0 population", "Lake Superior 3 area"}, 5)
	check("k above a block's rows", []string{"Lake Superior 3 area", "Toronto 2 country"}, 100)
	check("k above every row", []string{"Lake Superior 3 area", "zzz"}, 1000)
	check("every query falls through", []string{"zzz qqq", "vvv www xxx", "uuu", "zzz qqq"}, 5)
	check("one fall-through among filtered", []string{"Lake Superior 3 area", "zzz qqq", "Lake Michigan 3 area"}, 5)
	check("empty batch", nil, 5)

	// Empty and separator-only text embed to the zero vector: no hits.
	for i, hits := range s.BatchSearchWith(enc.Encode, []string{"", "<> //", "Lake Superior 3 area"}, 5) {
		if (hits == nil) != (i < 2) {
			t.Errorf("zero-vector batch, query %d: %d hits (nil: %v)", i, len(hits), hits == nil)
		}
	}
	// A token-less text whose supplied embedding is not zero has nothing
	// to filter on and scans everything.
	qv := enc.Encode("Lake Superior 3 area")
	got := s.BatchSearchWith(func(string) embed.Vector { return qv }, []string{"<> //", "Lake Superior 3 area"}, 5)
	requireSameHits(t, "token-less text, non-zero embedding", got[0], s.SearchVector(qv, 5))
	requireSameHits(t, "its batch-mate", got[1], s.Search("Lake Superior 3 area", 5))

	for _, k := range []int{0, -1} {
		got := s.BatchSearchWith(enc.Encode, []string{"Lake Superior 3 area", "zzz"}, k)
		if len(got) != 2 || got[0] != nil || got[1] != nil {
			t.Errorf("k=%d: %v", k, got)
		}
	}
	// encode is called once a query, in order, whatever k is.
	for _, k := range []int{5, 0} {
		var seen []string
		batch := []string{"b", "a", "", "a"}
		s.BatchSearchWith(func(q string) embed.Vector { seen = append(seen, q); return enc.Encode(q) }, batch, k)
		if fmt.Sprint(seen) != fmt.Sprint(batch) {
			t.Errorf("k=%d: encode saw %q, want %q", k, seen, batch)
		}
	}
}

// referenceHeap is the bounded min-heap the scan used before topK:
// container/heap over a score-only Less.
type referenceHeap []scored

func (h referenceHeap) Len() int           { return len(h) }
func (h referenceHeap) Less(i, j int) bool { return h[i].score < h[j].score }
func (h referenceHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *referenceHeap) Push(x any)        { *h = append(*h, x.(scored)) }
func (h *referenceHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// referenceTopK runs a score stream through container/heap the way the
// scan used to and returns the survivors in pop order.
func referenceTopK(scores []float64, k int) []scored {
	h := make(referenceHeap, 0, k+1)
	for row, score := range scores {
		if len(h) < k {
			heap.Push(&h, scored{score, int32(row)})
		} else if score > h[0].score {
			h[0] = scored{score, int32(row)}
			heap.Fix(&h, 0)
		}
	}
	out := make([]scored, 0, len(h))
	for len(h) > 0 {
		out = append(out, heap.Pop(&h).(scored))
	}
	return out
}

// TestTopKKeepsContainerHeapOrder: over score streams dense with ties,
// topK keeps the rows container/heap keeps and pops them in its order.
func TestTopKKeepsContainerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(12)
		levels := 1 + rng.Intn(6) // few distinct scores: ties everywhere
		scores := make([]float64, rng.Intn(60))
		for i := range scores {
			scores[i] = float64(rng.Intn(levels)) / 8
		}
		best := make(topK, 0, min(k, len(scores)))
		for row, score := range scores {
			best.offer(score, row)
		}
		var got []scored
		for len(best) > 0 {
			got = append(got, best.pop())
		}
		want := referenceTopK(scores, k)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("k=%d scores %v:\n got %v\nwant %v", k, scores, got, want)
		}
	}
}

// parentSearch is the filtered search of one block re-derived from
// nothing the scan uses: dense encodings scored with embed.NormDot, the
// candidate rule from the tokens, container/heap, a stable sort.
func parentSearch(enc *embed.Encoder, triples []kg.Triple, query string, k int) []Hit {
	qv := enc.Encode(query)
	qtoks := map[string]bool{}
	for _, tok := range embed.Tokenize(query) {
		qtoks[tok] = true
	}
	shares := func(tr kg.Triple) bool {
		for _, tok := range embed.Tokenize(tr.Text()) {
			if qtoks[tok] {
				return true
			}
		}
		return false
	}
	sharing := 0
	for _, tr := range triples {
		if shares(tr) {
			sharing++
		}
	}
	var rows []int
	var scores []float64
	for r, tr := range triples {
		if sharing < k || shares(tr) {
			v := enc.Encode(tr.Text())
			rows, scores = append(rows, r), append(scores, embed.NormDot(&qv, &v))
		}
	}
	kept := referenceTopK(scores, k)
	out := make([]Hit, len(kept))
	for i, s := range kept {
		out[len(out)-1-i] = Hit{Triple: triples[rows[s.row]], Score: s.score}
	}
	sort.SliceStable(out, func(i, j int) bool { return HitBefore(out[i], out[j]) })
	return out
}

// tieCorpus returns triples of which many score exactly alike against
// tieQuery: the ties share one text cut into subject, relation and object
// at different places, so their embeddings are equal and their keys are
// not. Rows that score lower and higher are placed so that, for small k,
// the heap fills with ties, refuses later ties, and has ties evicted from
// its root by the better rows that follow.
func tieCorpus() []kg.Triple {
	tie := func(cut1, cut2 int) kg.Triple {
		words := []string{"lake", "orin", "surface", "area", "north", "basin"}
		join := func(ws []string) string {
			s := ws[0]
			for _, w := range ws[1:] {
				s += " " + w
			}
			return s
		}
		return kg.NewTriple(join(words[:cut1]), join(words[cut1:cut2]), join(words[cut2:]))
	}
	return []kg.Triple{
		kg.NewTriple("lake orin", "country", "halvia"), // lower
		tie(2, 4), tie(1, 2), tie(3, 5), tie(1, 5), tie(2, 3),
		kg.NewTriple("lake orin", "area", "north"), // higher
		tie(4, 5), tie(1, 3),
		kg.NewTriple("mount kesh", "elevation", "4021"),   // shares nothing
		kg.NewTriple("lake orin surface", "area", "9120"), // higher
		tie(3, 4), tie(2, 5),
		kg.NewTriple("lake orin", "surface area", "9120"), // the same text as the row above
		tie(1, 4),
	}
}

const tieQuery = "lake orin surface area 9120"

// TestScoreTiesKeepParentOrder pins tie behaviour against the independent
// reference: inside one block (which tied rows survive is the heap's sift
// order; an equal score never evicts), and across blocks (the merge orders
// equal scores by key), for every k, every block size and every place to
// cut the rows into two appends — a chunk the cut splits is still one
// heap.
func TestScoreTiesKeepParentOrder(t *testing.T) {
	enc := embed.NewEncoder()
	triples := tieCorpus()
	qv := enc.Encode(tieQuery)
	tied := map[uint64]int{}
	for _, tr := range triples {
		v := enc.Encode(tr.Text())
		tied[math.Float64bits(embed.NormDot(&qv, &v))]++
	}
	most := 0
	for _, n := range tied {
		most = max(most, n)
	}
	if most < 10 {
		t.Fatalf("corpus has only %d rows tied on score", most)
	}
	mate := "lake orin country halvia" // shares rows with tieQuery, so the pair walks together
	for cut := 0; cut < len(triples); cut++ {
		for size := 1; size <= len(triples); size++ {
			a := NewArena(enc, size)
			a.Append(triples[:cut])
			a.Append(triples[cut:])
			s := a.View(triples)
			for k := 1; k <= len(triples)+1; k++ {
				var want [][]Hit
				for lo := 0; lo < len(triples); lo += size {
					want = append(want, parentSearch(enc, triples[lo:min(lo+size, len(triples))], tieQuery, k))
				}
				what := fmt.Sprintf("k=%d size=%d cut=%d", k, size, cut)
				requireSameHits(t, what+" alone", s.Search(tieQuery, k), MergeTopK(want, k))
				requireSameHits(t, what+" paired", s.BatchSearchWith(enc.Encode, []string{mate, tieQuery}, k)[1], MergeTopK(want, k))
			}
		}
	}

	// The two rules stated outright on the simplest case: eight tied rows
	// and nothing else, k = 3. A block keeps the first three it sees…
	var ties []kg.Triple
	for _, tr := range triples {
		v := enc.Encode(tr.Text())
		if tied[math.Float64bits(embed.NormDot(&qv, &v))] == most && len(ties) < 8 {
			ties = append(ties, tr)
		}
	}
	byKey := func(ts []kg.Triple) []string {
		keys := make([]string, len(ts))
		for i, tr := range ts {
			keys[i] = tr.Key()
		}
		sort.Strings(keys)
		return keys
	}
	if got, want := hitKeys(BuildTriples(enc, ties).Search(tieQuery, 3)), byKey(ties[:3]); !equalStrings(got, want) {
		t.Errorf("one block of ties: %q, want its first three rows by key %q", got, want)
	}
	// …and the merge of two blocks' first threes takes the three lowest keys.
	both := append(append([]kg.Triple{}, ties[:3]...), ties[4:7]...)
	got := hitKeys(BuildSharded(enc, ties, 4).Search(tieQuery, 3))
	if want := byKey(both)[:3]; !equalStrings(got, want) {
		t.Errorf("two blocks of ties: %q, want %q", got, want)
	}
}

// TestHybridBatchMatchesPerQueryReference: a Hybrid's batch is, per
// query, the graph probe merged with the reference over the tail, in
// blocks cut from the first row past the graph — or the reference over
// everything when there is no usable graph — and the routing counters
// count queries.
func TestHybridBatchMatchesPerQueryReference(t *testing.T) {
	enc := embed.NewEncoder()
	queries := pseudoTriples(t)
	triples := quickWorldStores(t)[0].All()
	a := NewArena(enc, 256)
	a.Append(triples)
	const covered = 2*256 + 37 // the tail's blocks straddle chunks
	graph := BuildGraph(a.View(triples[:covered]), HNSWConfig{})
	const k = 10

	for _, tc := range []struct {
		name  string
		ann   *HNSW
		split int // rows the graph covers
	}{
		{"graph over two chunks and a part", graph, covered},
		{"no graph", nil, 0},
	} {
		var counters ANNCounters
		hy := NewHybrid(a.View(triples), tc.ann, HybridOptions{Counters: &counters})
		tail := oneBlockViews(enc, triples[tc.split:], 256)
		asked := 0
		for _, size := range []int{1, 2, 3, 4, 13} {
			for b, batch := range batchesOf(queries, size) {
				got := hy.BatchSearchWith(enc.Encode, batch, k)
				asked += len(batch)
				for i, q := range batch {
					qv := enc.Encode(q)
					want := referenceSearch(tail, q, qv, k)
					if tc.ann != nil {
						want = MergeTopK([][]Hit{tc.ann.SearchVectorEf(qv, k, hy.ef()), want}, k)
					}
					requireSameHits(t, fmt.Sprintf("%s size %d batch %d %q", tc.name, size, b, q), got[i], want)
					requireSameHits(t, fmt.Sprintf("%s Search %q", tc.name, q), search(hy, q, k), want)
					asked++
				}
			}
		}
		searches, fallbacks := counters.Searches.Load(), counters.Fallbacks.Load()
		if tc.ann != nil && (searches != int64(asked) || fallbacks != 0) || tc.ann == nil && (searches != 0 || fallbacks != int64(asked)) {
			t.Errorf("%s: %d queries counted as %d searches + %d fallbacks", tc.name, asked, searches, fallbacks)
		}
	}
}

// TestConcurrentBatchesOnOneSharded runs batches from several goroutines
// over one Sharded with the block worker pool forced on (single-core
// machines otherwise skip it); under -race this is the check that a batch
// scan shares nothing mutable.
func TestConcurrentBatchesOnOneSharded(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	enc := embed.NewEncoder()
	queries := pseudoTriples(t)
	triples := quickWorldStores(t)[1].All()
	s := BuildSharded(enc, triples, 100)
	blocks := oneBlockViews(enc, triples, 100)
	batches := batchesOf(queries, 4)
	want := make([][][]Hit, len(batches))
	for b, batch := range batches {
		for _, q := range batch {
			want[b] = append(want[b], referenceSearch(blocks, q, enc.Encode(q), 10))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for b := range batches {
					b = (b + g) % len(batches)
					got := s.BatchSearchWith(enc.Encode, batches[b], 10)
					for i := range got {
						if d := diffHits(got[i], want[b][i]); d != "" {
							t.Errorf("goroutine %d batch %d query %d: %s", g, b, i, d)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
