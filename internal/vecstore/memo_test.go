package vecstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/kg"
)

// searcher is the search surface the memo tests compare: Search and
// BatchSearchWith.
type searcher interface {
	Search(query string, k int) []Hit
	BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]Hit
}

// memoIndex searches one Index with its memo on, as a view over it does.
type memoIndex struct {
	idx *Index
	c   *MemoCounters
}

func (m memoIndex) Search(query string, k int) []Hit {
	return m.BatchSearchWith(m.idx.enc.Encode, []string{query}, k)[0]
}

func (m memoIndex) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]Hit {
	return m.idx.scanBatch(prepare(encode, queries), k, m.c)
}

// twin is one view searched with its segments' memos off and on.
type twin struct {
	name    string
	off, on searcher
}

// twinDiff runs every batch, and then every query alone, through both
// sides of the twin — twice, so the second pass meets a hot memo — and
// describes the first difference hit for hit (triple, score bits, order),
// or returns "" when there is none.
func twinDiff(enc *embed.Encoder, tw twin, batches [][]string, k int) string {
	for _, pass := range []string{"cold", "hot"} {
		for b, batch := range batches {
			want, got := tw.off.BatchSearchWith(enc.Encode, batch, k), tw.on.BatchSearchWith(enc.Encode, batch, k)
			for i, q := range batch {
				if d := diffHits(got[i], want[i]); d != "" || (got[i] == nil) != (want[i] == nil) {
					return fmt.Sprintf("%s %s k=%d batch %d %q: %s (nil %v, want nil %v)", tw.name, pass, k, b, q, d, got[i] == nil, want[i] == nil)
				}
			}
		}
		for _, batch := range batches {
			for _, q := range batch {
				if d := diffHits(tw.on.Search(q, k), tw.off.Search(q, k)); d != "" {
					return fmt.Sprintf("%s %s k=%d Search %q: %s", tw.name, pass, k, q, d)
				}
			}
		}
	}
	return ""
}

// cutAt splits triples into segments at the given ascending offsets.
func cutAt(enc *embed.Encoder, triples []kg.Triple, cuts []int) []*Index {
	var segs []*Index
	lo := 0
	for _, hi := range append(cuts, len(triples)) {
		if hi > lo {
			segs = append(segs, BuildTriples(enc, triples[lo:hi]))
		}
		lo = hi
	}
	return segs
}

// memoTwins builds, over fresh segments cut at cuts (so every twin starts
// with a cold memo), the views the memo must not change: the whole set as
// one Index, and with blocks of size rows a Sharded, a Hybrid with a graph
// over the first split segments, and a Hybrid with no graph.
func memoTwins(enc *embed.Encoder, triples []kg.Triple, cuts []int, split, size int) []twin {
	var c MemoCounters
	idx := BuildTriples(enc, triples)
	tws := []twin{{"Index", idx, memoIndex{idx, &c}}}
	segs := cutAt(enc, triples, cuts)
	s := Compose(enc, size, segs...)
	tws = append(tws, twin{"Sharded", s, s.WithMemo(&c)})
	segs = cutAt(enc, triples, cuts)
	split = min(split, len(segs))
	var g *HNSW
	if split > 0 {
		g = BuildGraph(enc, segs[:split], HNSWConfig{})
	}
	tws = append(tws, twin{fmt.Sprintf("Hybrid(graph over %d of %d)", split, len(segs)),
		ComposeHybrid(enc, g, size, segs, HybridOptions{}), ComposeHybrid(enc, g, size, segs, HybridOptions{Memo: &c})})
	segs = cutAt(enc, triples, cuts)
	return append(tws, twin{"Hybrid(no graph)",
		ComposeHybrid(enc, nil, size, segs, HybridOptions{}), ComposeHybrid(enc, nil, size, segs, HybridOptions{Memo: &c})})
}

// memoCase draws one random instance: a triple set from the quick-world
// stores, a block size, cut points — some on block boundaries, so some
// segments are whole blocks — a graph split, and query batches with
// repeated texts, a zero-vector query and a query that shares no token.
func memoCase(rng *rand.Rand, pool []kg.Triple, queries []string) (triples []kg.Triple, cuts []int, split, size int, batches [][]string) {
	n := 40 + rng.Intn(400)
	for _, i := range rng.Perm(len(pool))[:n] {
		triples = append(triples, pool[i])
	}
	size = 32 << rng.Intn(3)
	for range rng.Intn(5) {
		cuts = append(cuts, rng.Intn(n), rng.Intn(n/size+1)*size)
	}
	sort.Ints(cuts)
	var asked []string
	for range 10 {
		asked = append(asked, queries[rng.Intn(len(queries))])
	}
	asked = append(asked, asked[0], asked[3], "", "zzz qqq", asked[0])
	rng.Shuffle(len(asked), func(i, j int) { asked[i], asked[j] = asked[j], asked[i] })
	for len(asked) > 0 {
		size := min(1+rng.Intn(5), len(asked))
		batches, asked = append(batches, asked[:size]), asked[size:]
	}
	return triples, cuts, rng.Intn(3), size, batches
}

// TestMemoMatchesScan is the memo's differential property: over random
// triple sets cut into random segments, every view answers with its
// segments' memos on exactly what it answers with them off — hit for hit,
// score bits and order included — through Search and BatchSearchWith, on
// a cold memo and again on a hot one.
func TestMemoMatchesScan(t *testing.T) {
	enc := embed.NewEncoder()
	var pool []kg.Triple
	for _, st := range quickWorldStores(t) {
		pool = append(pool, st.All()...)
	}
	queries := pseudoTriples(t)
	rng := rand.New(rand.NewSource(21))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := range trials {
		triples, cuts, split, size, batches := memoCase(rng, pool, queries)
		for _, tw := range memoTwins(enc, triples, cuts, split, size) {
			for _, k := range []int{1, 3, 10, 25} {
				if d := twinDiff(enc, tw, batches, k); d != "" {
					t.Fatalf("trial %d (%d triples, cuts %v): %s", trial, len(triples), cuts, d)
				}
			}
		}
	}
}

// TestMemoCheckCatchesCorruption proves TestMemoMatchesScan's check can
// fail: one score stored in a memo, nudged by one ulp, is reported.
func TestMemoCheckCatchesCorruption(t *testing.T) {
	enc := embed.NewEncoder()
	idx := BuildTriples(enc, corpus(200))
	tw := twin{"Index", idx, memoIndex{idx, &MemoCounters{}}}
	batches := [][]string{{"Lake Superior 3 area", "River Danube length"}, {"Beijing 0 population"}}
	if d := twinDiff(enc, tw, batches, 10); d != "" {
		t.Fatalf("before corruption: %s", d)
	}
	ranked := idx.memo.entries[memoKey{"River Danube length", 10}]
	if len(ranked) == 0 {
		t.Fatal("the memo holds no entry for a query it answered")
	}
	ranked[len(ranked)/2].score = math.Nextafter(ranked[len(ranked)/2].score, 2)
	if d := twinDiff(enc, tw, batches, 10); d == "" {
		t.Fatal("a corrupted memo score went unreported")
	} else {
		t.Logf("reported: %s", d)
	}
}

// TestMemoBoundedBySegmentRows: a memo fills until it holds one entry per
// row of its segment, then stops storing; queries past the bound are
// still answered, by a scan.
func TestMemoBoundedBySegmentRows(t *testing.T) {
	enc := embed.NewEncoder()
	segs := BuildShards(enc, corpus(23), 8) // 8, 8 and 7 rows
	var c MemoCounters
	on, off := Compose(enc, 8, segs...).WithMemo(&c), Compose(enc, 8, segs...)
	var queries []string
	for i := range 30 {
		queries = append(queries, fmt.Sprintf("Lake Superior %d area", i))
	}
	for _, k := range []int{1, 3} {
		for _, q := range queries {
			requireSameHits(t, fmt.Sprintf("k=%d %q", k, q), on.Search(q, k), off.Search(q, k))
		}
	}
	for i, seg := range segs {
		if got := seg.memoLen(); got != seg.Len() {
			t.Errorf("segment %d: memo holds %d entries, want its %d rows", i, got, seg.Len())
		}
	}
	if st := on.Stats().Memo; st == nil || st.Entries != 23 || st.Hits != 0 || st.Misses != 2*30*3 {
		t.Errorf("memo stats %+v, want 23 entries, 0 hits, %d misses", st, 2*30*3)
	}
}

// TestMemoOnlyOnWholeBlocks: a segment's memo, filled while the segment
// was a whole block of a view, is not consulted where the segment shares
// its block with another — there the block decides which rows are
// candidates, and it can decide differently from the segment alone.
func TestMemoOnlyOnWholeBlocks(t *testing.T) {
	enc := embed.NewEncoder()
	triples := corpus(96)
	segs := cutAt(enc, triples, []int{64, 70}) // block 1 is 6 rows alone, 32 joined
	var c MemoCounters
	alone, joined := Compose(enc, 64, segs[:2]...).WithMemo(&c), Compose(enc, 64, segs...).WithMemo(&c)
	ref := Compose(enc, 64, BuildShards(enc, triples, 64)...)
	flips := 0
	for _, k := range []int{2, 3, 5} {
		for i := range 12 {
			q := fmt.Sprintf("Lake Superior %d area", i)
			alone.Search(q, k)
			requireSameHits(t, fmt.Sprintf("k=%d %q", k, q), joined.Search(q, k), ref.Search(q, k))
			toks := distinctTokens(q)
			if n := segs[1].whole()[0].candidates(toks).count(); n < k && n+segs[2].whole()[0].candidates(toks).count() >= k {
				flips++
			}
		}
	}
	if flips == 0 || segs[1].memoLen() == 0 {
		t.Fatalf("%d queries where the block's mode differs from the segment's, %d memo entries: the case is not exercised", flips, segs[1].memoLen())
	}
}

// TestMemoHitsAreFreshSlices: a caller mutating the hits it got — scores,
// triples, the slice itself — cannot change what a later memo hit returns.
func TestMemoHitsAreFreshSlices(t *testing.T) {
	enc := embed.NewEncoder()
	segs := BuildShards(enc, corpus(300), 64)
	var c MemoCounters
	on, off := Compose(enc, 64, segs...).WithMemo(&c), Compose(enc, 64, segs...)
	queries := []string{"Lake Superior 3 area", "Mount Kenya 7 elevation"}
	want := off.BatchSearchWith(enc.Encode, queries, 10)
	for round := range 3 {
		got := on.BatchSearchWith(enc.Encode, queries, 10)
		for i := range queries {
			requireSameHits(t, fmt.Sprintf("round %d %q", round, queries[i]), got[i], want[i])
			for j := range got[i] {
				got[i][j].Score = -1
				got[i][j].Triple.Subject = "mutated"
				got[i][j].Triple.ID = -1
			}
			clear(got[i])
		}
		single := on.Search(queries[0], 10)
		requireSameHits(t, fmt.Sprintf("round %d Search", round), single, want[0])
		single[0] = Hit{Score: 9}
	}
	if c.Hits.Load() == 0 {
		t.Fatal("no memo hits: the test never reached the memo")
	}
}

// TestConcurrentMemoBatches runs batches from several goroutines over
// segments shared by a memo-on Sharded and a memo-on Hybrid, with the
// segment worker pool forced on; under -race this is the check that the
// memos' concurrent reads and writes are clean, and every result must
// match the memo-off reference.
func TestConcurrentMemoBatches(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	enc := embed.NewEncoder()
	queries := pseudoTriples(t)
	segs := BuildShards(enc, quickWorldStores(t)[1].All(), 100)
	var c MemoCounters
	views := []searcher{
		Compose(enc, 100, segs...).WithMemo(&c),
		ComposeHybrid(enc, nil, 100, segs, HybridOptions{Memo: &c}),
	}
	ref := Compose(enc, 100, segs...)
	batches := batchesOf(queries[:min(len(queries), 60)], 3)
	want := make([][][]Hit, len(batches))
	for b, batch := range batches {
		want[b] = ref.BatchSearchWith(enc.Encode, batch, 10)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := views[g%len(views)]
			for round := range 3 {
				for b := range batches {
					b = (b + g + round) % len(batches)
					got := view.BatchSearchWith(enc.Encode, batches[b], 10)
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
	if c.Hits.Load() == 0 {
		t.Fatal("no memo hits under concurrency")
	}
}

// memoHotAllocs is what one memo-hot Sharded.BatchSearchWith of three
// queries over five segments allocates with two segment workers, as
// measured when the memo landed: the prepared batch and its tokens, the
// fan-out, per segment its result lists and one fresh hit slice per
// query, and the merge. The same batch scanned allocates more: candidate
// bitsets, walks and heaps on every segment.
const memoHotAllocs = 54

// TestMemoHotAllocations pins memoHotAllocs, the regression gate for the
// memo-hot path.
func TestMemoHotAllocations(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	enc := embed.NewEncoder()
	segs := BuildShards(enc, corpus(5*512), 512)
	hot, scanned := Compose(enc, 512, segs...).WithMemo(&MemoCounters{}), Compose(enc, 512, segs...)
	queries := []string{"Lake Superior 42 area", "Lake Superior 42 country Canada", "River Danube length"}
	hot.BatchSearchWith(enc.Encode, queries, 10) // fill the memos
	got := testing.AllocsPerRun(50, func() { hot.BatchSearchWith(enc.Encode, queries, 10) })
	scan := testing.AllocsPerRun(50, func() { scanned.BatchSearchWith(enc.Encode, queries, 10) })
	if got > memoHotAllocs || got >= scan {
		t.Fatalf("memo-hot batch allocates %.0f times (scan: %.0f), want <= %d", got, scan, memoHotAllocs)
	}
	t.Logf("memo-hot batch: %.0f allocations; scanned: %.0f", got, scan)
}

// requireSameSegment fails unless got is, field for field, the segment
// want is: packed offsets, entries and values, inverted lists, triples.
func requireSameSegment(t *testing.T, what string, got, want *Index) {
	t.Helper()
	switch {
	case !slices.Equal(got.triples, want.triples):
		t.Fatalf("%s: triples differ", what)
	case !slices.Equal(got.rows.off, want.rows.off):
		t.Fatalf("%s: row offsets differ", what)
	case !slices.Equal(got.rows.idx, want.rows.idx):
		t.Fatalf("%s: entry dimensions differ", what)
	case !slices.EqualFunc(got.rows.val, want.rows.val, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }):
		t.Fatalf("%s: entry values differ", what)
	case !reflect.DeepEqual(got.inverted, want.inverted):
		t.Fatalf("%s: inverted lists differ", what)
	}
}

// TestConcatAndReshardEqualFromTextBuilds: segments joined without
// re-encoding (Concat) and segments kept across a reshard (Reshard) are
// field for field the segments a from-text build gives over the same
// triples, and Reshard keeps exactly the aligned full segments whose
// triples are unchanged.
func TestConcatAndReshardEqualFromTextBuilds(t *testing.T) {
	enc := embed.NewEncoder()
	rng := rand.New(rand.NewSource(4))
	triples := quickWorldStores(t)[0].All()[:900]
	for trial := range 8 {
		var cuts []int
		for range rng.Intn(20) {
			cuts = append(cuts, rng.Intn(len(triples)))
		}
		sort.Ints(cuts)
		requireSameSegment(t, fmt.Sprintf("trial %d Concat at %v", trial, cuts), Concat(enc, cutAt(enc, triples, cuts)...), BuildTriples(enc, triples))
	}
	requireSameSegment(t, "Concat of nothing", Concat(enc), BuildTriples(enc, nil))

	const size = 128
	old, grown := triples[:600], triples
	for _, tc := range []struct {
		name  string
		prev  []*Index
		reuse []int // positions of grown's segments that must be prev's
	}{
		{"plain base", BuildShards(enc, old, size), []int{0, 1, 2, 3}},
		// A recovered base cut at a graph boundary: only segments that
		// start on a multiple of size and are full can be reused.
		{"cut at 300", append(BuildShards(enc, old[:300], size), BuildShards(enc, old[300:], size)...), []int{0, 1}},
		{"no previous base", nil, nil},
	} {
		got := Reshard(enc, grown, size, tc.prev)
		want := BuildShards(enc, grown, size)
		if len(got) != len(want) {
			t.Fatalf("%s: %d segments, want %d", tc.name, len(got), len(want))
		}
		for i := range want {
			requireSameSegment(t, fmt.Sprintf("%s segment %d", tc.name, i), got[i], want[i])
			if reused := slices.Contains(tc.prev, got[i]); reused != slices.Contains(tc.reuse, i) {
				t.Errorf("%s segment %d: reused %v, want %v", tc.name, i, reused, !reused)
			}
		}
	}
	// A segment whose triples changed is rebuilt, however well placed.
	changed := slices.Clone(old)
	changed[5].ID = -1
	prev := BuildShards(enc, changed, size)
	if got := Reshard(enc, grown, size, prev); got[0] == prev[0] || got[1] != prev[1] {
		t.Error("Reshard reused a segment whose triples differ, or rebuilt one whose triples match")
	}
}
