package vecstore

import (
	"fmt"
	"runtime"
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

	// A view of an arena's first rows holds those rows in blocks of the
	// arena's chunk size.
	a, c := NewArena(enc, 4), corpus(10)
	a.Append(c)
	if v := a.View(c[:5]); v.Len() != 5 || v.Shards() != 2 || len(v.Search("Lake Superior 0 area", 10)) != 5 {
		t.Errorf("view of 5 rows: len=%d shards=%d", v.Len(), v.Shards())
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
	if sharded.Len() != 130 || sharded.Shards() != 3 {
		t.Errorf("%d rows in %d blocks, want 130 in 3", sharded.Len(), sharded.Shards())
	}
}

// TestSinceIsThePastWatermark pins the watermark: a view is past a token
// when the token names a view under the same graph, or none, with no more
// rows, and Since then returns the rows from the watermark on.
func TestSinceIsThePastWatermark(t *testing.T) {
	enc := embed.NewEncoder()
	a, c := NewArena(enc, 30), corpus(90)
	a.Append(c)
	first := func(n int) *Sharded { return a.View(c[:n]) }
	g := BuildGraph(first(30), HNSWConfig{})
	hybrid := func(g *HNSW, n int) *Hybrid { return NewHybrid(first(n), g, HybridOptions{}) }
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
		{"appended", first(30), first(90), 60},
		{"unchanged", first(60), first(60), 0},
		{"inside a block", first(45), first(90), 45},
		{"shorter", first(60), first(30), -1},
		{"graph kept", hybrid(g, 30), hybrid(g, 60), 30},
		{"graph rebuilt", hybrid(g, 30), hybrid(BuildGraph(first(30), HNSWConfig{}), 60), -1},
		{"graph dropped", hybrid(g, 30), first(60), -1},
		{"graph added", first(30), hybrid(g, 60), -1},
		{"graph over appended", hybrid(nil, 30), hybrid(BuildGraph(first(60), HNSWConfig{}), 60), -1},
		{"no graph either way", hybrid(nil, 30), first(60), 30},
	} {
		suffix, ok := tc.to.Since(tc.from.Token())
		switch {
		case ok != (tc.added >= 0):
			t.Errorf("%s: past the watermark %v, want %v", tc.name, ok, tc.added >= 0)
		case ok && suffix.Len() != tc.added:
			t.Errorf("%s: the suffix holds %d rows, want %d", tc.name, suffix.Len(), tc.added)
		}
	}
	if _, ok := first(30).Since(Token{}); ok {
		t.Error("a view is past the zero Token")
	}
}
