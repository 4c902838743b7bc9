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
	"repro/internal/world"
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
// triples builds — packed offsets, entries and codes, table offsets and
// values, token lists — and every chunk but the last holds exactly the
// chunk size.
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
				case c < len(got.chunks)-1 && gc.rows.len() != size:
					t.Fatalf("%s chunk %d: %d rows, want %d", what, c, gc.rows.len(), size)
				case !slices.Equal(gc.rows.off, wc.rows.off):
					t.Fatalf("%s chunk %d: row offsets differ", what, c)
				case !slices.Equal(gc.rows.idx, wc.rows.idx):
					t.Fatalf("%s chunk %d: entry dimensions differ", what, c)
				case !slices.Equal(gc.rows.code, wc.rows.code):
					t.Fatalf("%s chunk %d: entry codes differ", what, c)
				case !slices.Equal(gc.rows.tab, wc.rows.tab):
					t.Fatalf("%s chunk %d: table offsets differ", what, c)
				case !slices.EqualFunc(gc.rows.vals, wc.rows.vals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }):
					t.Fatalf("%s chunk %d: table values differ", what, c)
				case cap(gc.rows.vals)-len(gc.rows.vals) < tableSpan:
					t.Fatalf("%s chunk %d: %d values of spare capacity, want at least %d", what, c, cap(gc.rows.vals)-len(gc.rows.vals), tableSpan)
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
			got, want := a.View(triples[:n]), fresh(n, size).View(triples[:n])
			if got.Len() != want.Len() || got.Shards() != want.Shards() {
				t.Fatalf("%s: %d rows in %d blocks, fresh %d in %d", what, got.Len(), got.Shards(), want.Len(), want.Shards())
			}
			requireSameAnswers(t, what, got, want, queries)
		}
		for _, m := range []int{1, 64, 150, 299} {
			got := NewHybrid(a.View(triples[:300]), BuildGraph(a.View(triples[:m]), HNSWConfig{}), HybridOptions{})
			f := fresh(300, size)
			want := NewHybrid(f.View(triples[:300]), BuildGraph(f.View(triples[:m]), HNSWConfig{}), HybridOptions{})
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
					v := a.View(triples[:a.Len()])
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
				if want := viewAnswers(fresh(n, size).View(triples[:n]), queries[:3]); h.want != want {
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

// maxSeedArenaBytesPerRow bounds the live heap the two paper-scale seed
// arenas hold per row, token index included: 470.8 B measured on
// linux/amd64 with go1.24, plus 10 %. Entries that each held a float32
// value, and chunks that kept their own copy of their triples (72 B a
// row), cost 695.7 B.
const maxSeedArenaBytesPerRow = 518

// TestSeedArenaBytesPerRow pins what the seed arenas cost in memory:
// every node keeps one per source for its lifetime. The stores stay alive
// throughout, so only what the arenas add is counted.
func TestSeedArenaBytesPerRow(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	cfg := world.DefaultConfig()
	cfg.Seed = 42
	w := world.MustGenerate(cfg)
	stores := []*kg.Store{world.WikidataSchema().Render(w), world.FreebaseSchema().Render(w)}
	enc := embed.NewEncoder()
	before := liveHeap()
	arenas := make([]*Arena, len(stores))
	rows := 0
	for i, st := range stores {
		arenas[i] = arenaOf(enc, st.Prefix(st.Len()).Triples(), 0)
		rows += arenas[i].Len()
	}
	after := liveHeap()
	perRow := float64(after-before) / float64(rows)
	t.Logf("%d rows, %.1f B per row", rows, perRow)
	if perRow > maxSeedArenaBytesPerRow {
		t.Errorf("the seed arenas hold %.1f B per row, want at most %d", perRow, maxSeedArenaBytesPerRow)
	}
	runtime.KeepAlive(stores)
	runtime.KeepAlive(arenas)
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
