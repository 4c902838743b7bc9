package vecstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/embed"
	"repro/internal/kg"
)

// corpus builds n synthetic triples with overlapping vocabulary so both
// the token-filtered and exact paths have work to do.
func corpus(n int) []kg.Triple {
	subjects := []string{"Lake Superior", "Lake Michigan", "Mount Kenya", "River Danube", "Beijing", "Toronto"}
	relations := []string{"area", "population", "country", "elevation", "length"}
	out := make([]kg.Triple, n)
	for i := range out {
		out[i] = kg.Triple{
			Subject:  fmt.Sprintf("%s %d", subjects[i%len(subjects)], i/len(subjects)),
			Relation: relations[i%len(relations)],
			Object:   fmt.Sprintf("%d", 1000+i),
		}
	}
	return out
}

func TestShardedMatchesSingleExact(t *testing.T) {
	enc := embed.NewEncoder()
	triples := corpus(500)
	single := BuildTriples(enc, triples)
	for _, shardSize := range []int{64, 100, 499, 500, 1000} {
		sharded := BuildSharded(enc, triples, shardSize)
		if sharded.Len() != single.Len() {
			t.Fatalf("shardSize=%d: Len = %d, want %d", shardSize, sharded.Len(), single.Len())
		}
		for _, k := range []int{1, 3, 10} {
			for _, q := range []string{"Lake Superior 3 area", "population of Beijing", "River Danube length"} {
				want := single.SearchExact(q, k)
				got := sharded.SearchExact(q, k)
				if len(got) != len(want) {
					t.Fatalf("shardSize=%d k=%d %q: %d hits, want %d", shardSize, k, q, len(got), len(want))
				}
				for i := range want {
					if got[i].Triple.Key() != want[i].Triple.Key() || got[i].Score != want[i].Score {
						t.Errorf("shardSize=%d k=%d %q hit %d: got %v@%g want %v@%g",
							shardSize, k, q, i, got[i].Triple, got[i].Score, want[i].Triple, want[i].Score)
					}
				}
			}
		}
	}
}

func TestShardedFilteredSearch(t *testing.T) {
	enc := embed.NewEncoder()
	triples := corpus(300)
	single := BuildTriples(enc, triples)
	sharded := BuildSharded(enc, triples, 50)
	// The filtered path may pre-select differently per shard, but the top
	// hit and the score ordering must agree with the single index.
	for _, q := range []string{"Lake Superior 0 area", "Toronto 2 country"} {
		want := single.Search(q, 5)
		got := sharded.Search(q, 5)
		if len(got) == 0 || len(want) == 0 {
			t.Fatalf("%q: empty results (got %d, want %d)", q, len(got), len(want))
		}
		if got[0].Triple.Key() != want[0].Triple.Key() {
			t.Errorf("%q top hit: got %v, want %v", q, got[0].Triple, want[0].Triple)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Score > got[i-1].Score {
				t.Errorf("%q: results not score-ordered at %d", q, i)
			}
		}
	}
}

func TestShardedBatchSearch(t *testing.T) {
	enc := embed.NewEncoder()
	triples := corpus(200)
	sharded := BuildSharded(enc, triples, 32)
	queries := []string{"Lake Superior 0 area", "Beijing 1 population", "no overlap whatsoever zzz"}
	res := sharded.BatchSearchWith(enc.Encode, queries, 3)
	if len(res) != len(queries) {
		t.Fatalf("batch returned %d lists, want %d", len(res), len(queries))
	}
	for i, q := range queries {
		want := sharded.Search(q, 3)
		if len(res[i]) != len(want) {
			t.Errorf("batch[%d] %q: %d hits, want %d", i, q, len(res[i]), len(want))
		}
	}
}

func TestShardedEdgeCases(t *testing.T) {
	enc := embed.NewEncoder()
	empty := BuildSharded(enc, nil, 10)
	if empty.Len() != 0 || empty.Shards() != 0 {
		t.Errorf("empty sharded: len=%d shards=%d", empty.Len(), empty.Shards())
	}
	if hits := empty.Search("anything", 5); len(hits) != 0 {
		t.Errorf("empty sharded returned hits: %v", hits)
	}

	one := BuildSharded(enc, corpus(10), 100)
	if one.Shards() != 1 {
		t.Errorf("10 triples at shard size 100 -> %d shards, want 1", one.Shards())
	}
	if hits := one.Search("Lake Superior 0 area", 0); hits != nil {
		t.Errorf("k=0 returned hits: %v", hits)
	}

	// Compose drops nil and empty segments.
	idx := BuildTriples(enc, corpus(5))
	composed := Compose(enc, 0, nil, BuildTriples(enc, nil), idx)
	if composed.Shards() != 1 || composed.Len() != 5 {
		t.Errorf("compose: shards=%d len=%d", composed.Shards(), composed.Len())
	}
}

// TestShardedParallelPathMatches forces the concurrent worker-pool path
// (which single-core machines otherwise skip) and checks it agrees with
// the sequential scan.
func TestShardedParallelPathMatches(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	enc := embed.NewEncoder()
	triples := corpus(400)
	single := BuildTriples(enc, triples)
	sharded := BuildSharded(enc, triples, 64)
	for _, q := range []string{"Lake Superior 2 area", "Beijing 0 population", "Mount Kenya 1 elevation"} {
		want := single.SearchExact(q, 7)
		got := sharded.SearchExact(q, 7)
		if len(got) != len(want) {
			t.Fatalf("%q: %d hits, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Triple.Key() != want[i].Triple.Key() || got[i].Score != want[i].Score {
				t.Errorf("%q hit %d: got %v@%g want %v@%g", q, i, got[i].Triple, got[i].Score, want[i].Triple, want[i].Score)
			}
		}
	}
}

func TestShardedStats(t *testing.T) {
	enc := embed.NewEncoder()
	sharded := BuildSharded(enc, corpus(130), 50)
	st := sharded.Stats()
	if st.Triples != 130 || st.Shards != 3 || st.Dim != embed.Dim {
		t.Errorf("stats = %+v", st)
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}

// TestSinceIsThePastWatermark pins the watermark: a view is past a token
// when the token names a view under the same graph, or none, with no more
// rows — however either view is cut into segments — and Since then
// returns the rows from the watermark on.
func TestSinceIsThePastWatermark(t *testing.T) {
	enc := embed.NewEncoder()
	triples := corpus(90)
	segs := BuildShards(enc, triples, 30)
	a, b, c := segs[0], segs[1], segs[2]
	g := BuildGraph(enc, []*Index{a}, HNSWConfig{})
	compose := func(segs ...*Index) *Sharded { return Compose(enc, 30, segs...) }
	hybrid := func(g *HNSW, segs ...*Index) *Hybrid { return ComposeHybrid(enc, g, 30, segs, HybridOptions{}) }
	type view interface {
		Token() Token
		Since(Token) (*Suffix, bool)
	}
	for _, tc := range []struct {
		name  string
		from  view
		to    view
		added int // rows past the watermark; -1: the view is not past the token
	}{
		{"appended", compose(a), compose(a, b, c), 60},
		{"unchanged", compose(a, b), compose(a, b), 0},
		{"coalesced", compose(a, b), compose(Concat(enc, a, b), c), 30},
		{"re-cut", compose(a), compose(BuildTriples(enc, triples[:45]), BuildTriples(enc, triples[45:])), 60},
		{"shorter", compose(a, b), compose(a), -1},
		{"graph kept", hybrid(g, a), hybrid(g, a, b), 30},
		{"graph rebuilt", hybrid(g, a), hybrid(BuildGraph(enc, []*Index{a}, HNSWConfig{}), a, b), -1},
		{"graph dropped", hybrid(g, a), compose(a, b), -1},
		{"graph added", compose(a), hybrid(g, a, b), -1},
		{"graph over appended", hybrid(nil, a), hybrid(BuildGraph(enc, []*Index{a, b}, HNSWConfig{}), a, b), -1},
		{"no graph either way", hybrid(nil, a), compose(a, b), 30},
	} {
		suffix, ok := tc.to.Since(tc.from.Token())
		switch {
		case ok != (tc.added >= 0):
			t.Errorf("%s: past the watermark %v, want %v", tc.name, ok, tc.added >= 0)
		case ok && suffix.Len() != tc.added:
			t.Errorf("%s: the suffix holds %d rows, want %d", tc.name, suffix.Len(), tc.added)
		}
	}
	if _, ok := compose(a).Since(Token{}); ok {
		t.Error("a view is past the zero Token")
	}
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
