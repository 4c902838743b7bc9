package vecstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/racedetect"
)

// appendInBatches appends triples to a in batches of random lengths.
func appendInBatches(rng *rand.Rand, a *Arena, triples []kg.Triple) {
	for lo := 0; lo < len(triples); {
		hi := min(len(triples), lo+1+rng.Intn(max(1, len(triples)/8)))
		a.Append(triples[lo:hi])
		lo = hi
	}
}

// TestArenaAppendsEqualOneBuild: an arena appended to in batches holds,
// chunk for chunk and field for field, what one append of the same
// triples builds — triples, packed offsets, entries and values, token
// lists — and every chunk but the last holds exactly the chunk size.
func TestArenaAppendsEqualOneBuild(t *testing.T) {
	enc := embed.NewEncoder()
	rng := rand.New(rand.NewSource(4))
	triples := quickWorldStores(t)[0].All()[:900]
	for _, size := range []int{1, 64, 128, 900, 4096} {
		want := arenaOf(enc, triples, size)
		for trial := range 3 {
			got := NewArena(enc, size)
			appendInBatches(rng, got, triples)
			what := fmt.Sprintf("size %d trial %d", size, trial)
			if got.Len() != len(triples) || len(got.chunks) != len(want.chunks) {
				t.Fatalf("%s: %d rows in %d chunks, want %d in %d", what, got.Len(), len(got.chunks), len(triples), len(want.chunks))
			}
			for c, gc := range got.chunks {
				wc := want.chunks[c]
				switch {
				case c < len(got.chunks)-1 && len(gc.triples) != size:
					t.Fatalf("%s chunk %d: %d rows, want %d", what, c, len(gc.triples), size)
				case !slices.Equal(gc.triples, wc.triples):
					t.Fatalf("%s chunk %d: triples differ", what, c)
				case !slices.Equal(gc.rows.off, wc.rows.off):
					t.Fatalf("%s chunk %d: row offsets differ", what, c)
				case !slices.Equal(gc.rows.idx, wc.rows.idx):
					t.Fatalf("%s chunk %d: entry dimensions differ", what, c)
				case !slices.EqualFunc(gc.rows.val, wc.rows.val, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }):
					t.Fatalf("%s chunk %d: entry values differ", what, c)
				case !reflect.DeepEqual(gc.inverted, wc.inverted):
					t.Fatalf("%s chunk %d: token lists differ", what, c)
				}
			}
		}
	}
}

// viewAnswers renders what a view answers to the queries in batches of
// three and the first alone, for a few k, with score bits.
func viewAnswers(s Searcher, queries []string) string {
	enc := s.Encoder()
	out := ""
	for _, k := range []int{1, 10, 25} {
		for _, batch := range batchesOf(queries, 3) {
			for i, hits := range s.BatchSearchWith(enc.Encode, batch, k) {
				out += fmt.Sprintf("k=%d %q:", k, batch[i])
				for _, h := range hits {
					out += fmt.Sprintf(" %s@%x", h.Triple.Key(), math.Float64bits(h.Score))
				}
				out += "\n"
			}
		}
		out += fmt.Sprint(hitKeys(search(s, queries[0], k)), "\n")
	}
	return out
}

// TestPrefixViewsMatchFreshBuilds holds a view of an arena's first n rows
// to a fresh build of those n triples alone — the naive reference — for
// exact views and for Hybrids with a graph over the first m rows: the same
// hits, score bits and order. The arena is appended to in random batches,
// and the views are read both as they are made and while later appends
// run from another goroutine, so under -race this is also the check that
// a view reads nothing an append writes.
func TestPrefixViewsMatchFreshBuilds(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	enc := embed.NewEncoder()
	rng := rand.New(rand.NewSource(31))
	queries := pseudoTriples(t)[:12]
	triples := quickWorldStores(t)[1].All()[:700]
	fresh := func(n, size int) *Arena { return arenaOf(enc, triples[:n], size) }
	for _, size := range []int{64, 100} {
		a := NewArena(enc, size)
		appendInBatches(rng, a, triples[:300])
		for _, n := range []int{0, 1, 63, 64, 65, 150, 300} {
			what := fmt.Sprintf("size %d, view of %d", size, n)
			got, want := a.View(n), fresh(n, size).View(n)
			if got.Len() != want.Len() || got.Shards() != want.Shards() {
				t.Fatalf("%s: %d rows in %d blocks, fresh %d in %d", what, got.Len(), got.Shards(), want.Len(), want.Shards())
			}
			requireSameAnswers(t, what, got, want, queries)
		}
		for _, m := range []int{1, 64, 150, 299} {
			got := NewHybrid(a.View(300), BuildGraph(a, m, HNSWConfig{}), HybridOptions{})
			f := fresh(300, size)
			want := NewHybrid(f.View(300), BuildGraph(f, m, HNSWConfig{}), HybridOptions{})
			requireSameAnswers(t, fmt.Sprintf("size %d, hybrid over %d of 300", size, m), got, want, queries)
		}

		// Readers hold views while the rest is appended, re-reading every
		// view they hold on each round.
		type held struct {
			view *Sharded
			want string
		}
		done := make(chan struct{})
		var mu sync.Mutex
		var seen []held
		var wg sync.WaitGroup
		for range 3 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var views []held
				for {
					v := a.View(a.Len())
					views = append(views, held{v, viewAnswers(v, queries[:3])})
					for _, h := range views {
						if got := viewAnswers(h.view, queries[:3]); got != h.want {
							t.Errorf("size %d: a view of %d rows changed under appends", size, h.view.Len())
							return
						}
					}
					if len(views) > 4 {
						views = views[1:]
					}
					mu.Lock()
					seen = append(seen, views[len(views)-1])
					mu.Unlock()
					select {
					case <-done:
						return
					default:
					}
				}
			}()
		}
		appendInBatches(rng, a, triples[300:])
		close(done)
		wg.Wait()
		for i, h := range seen {
			if i%max(1, len(seen)/8) == 0 || i == len(seen)-1 {
				n := h.view.Len()
				if want := viewAnswers(fresh(n, size).View(n), queries[:3]); h.want != want {
					t.Fatalf("size %d: a view of %d rows read during appends differs from a fresh build", size, n)
				}
			}
		}
	}
}

// requireSameAnswers fails unless got answers every query as want does.
func requireSameAnswers(t *testing.T, what string, got, want Searcher, queries []string) {
	t.Helper()
	if g, w := viewAnswers(got, queries), viewAnswers(want, queries); g != w {
		t.Fatalf("%s: answers differ from a fresh build's\n got %s\nwant %s", what, g, w)
	}
}

// searchAllocs is what one BatchSearchWith of three queries over a
// two-block view of the quick world allocates (measured): the prepared
// queries, per block the walks, candidate sets, heaps, pairing table and
// hit lists, and per query the merge.
const searchAllocs = 50

// TestBatchSearchAllocations pins the allocations of the served search
// path, which a cold answer runs once per source.
func TestBatchSearchAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	enc := embed.NewEncoder()
	triples := quickWorldStores(t)[0].All()
	view := BuildSharded(enc, triples, (len(triples)+1)/2)
	if view.Shards() != 2 {
		t.Fatalf("%d blocks, want 2", view.Shards())
	}
	queries := pseudoTriples(t)[:3]
	vecs := map[string]embed.Vector{}
	for _, q := range queries {
		vecs[q] = enc.Encode(q)
	}
	encode := func(q string) embed.Vector { return vecs[q] }
	if got := testing.AllocsPerRun(100, func() { view.BatchSearchWith(encode, queries, 10) }); got > searchAllocs {
		t.Fatalf("one batch of three queries allocates %.0f times, want at most %d", got, searchAllocs)
	}
}
