package vecstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/embed"
	"repro/internal/kg"
)

func hitKeys(hits []Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Triple.Key()
	}
	return out
}

// TestHNSWSmallCorpusMatchesExact: with a beam at least as wide as the
// corpus the graph search degenerates to an exhaustive walk, so results
// must equal the brute-force reference exactly — scores, order and all.
func TestHNSWSmallCorpusMatchesExact(t *testing.T) {
	enc := embed.NewEncoder()
	triples := corpus(60)
	h := BuildHNSW(enc, triples, HNSWConfig{EfSearch: 128})
	exact := BuildTriples(enc, corpus(60))
	for _, k := range []int{1, 5, 10} {
		for _, q := range []string{"Lake Superior 3 area", "population of Beijing", "River Danube length"} {
			want := exact.SearchExact(q, k)
			got := search(h, q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d %q: %d hits, want %d", k, q, len(got), len(want))
			}
			for i := range want {
				if got[i].Triple.Key() != want[i].Triple.Key() || got[i].Score != want[i].Score {
					t.Errorf("k=%d %q hit %d: got %v@%g want %v@%g",
						k, q, i, got[i].Triple, got[i].Score, want[i].Triple, want[i].Score)
				}
			}
		}
	}
}

// TestHNSWRecallSanity: at production-shaped parameters on a few
// thousand vectors, recall@10 against the exact scan must be high. The
// build is deterministic, so this is a fixed property of the corpus,
// not a flaky statistical bound.
func TestHNSWRecallSanity(t *testing.T) {
	enc := embed.NewEncoder()
	n := 2000
	h := BuildHNSW(enc, corpus(n), HNSWConfig{})
	exact := BuildTriples(enc, corpus(n))
	queries := []string{
		"Lake Superior 12 area", "Beijing 40 population", "Mount Kenya 7 elevation",
		"River Danube 3 length", "Toronto 25 country", "Lake Michigan 99 area",
	}
	var hit, total int
	for _, q := range queries {
		want := map[string]bool{}
		for _, w := range exact.SearchExact(q, 10) {
			want[w.Triple.Key()] = true
		}
		for _, g := range search(h, q, 10) {
			if want[g.Triple.Key()] {
				hit++
			}
		}
		total += 10
	}
	if recall := float64(hit) / float64(total); recall < 0.9 {
		t.Fatalf("recall@10 = %.3f over %d queries, want >= 0.9", recall, len(queries))
	}
}

// TestHNSWDeterministicBuild: two builds over identical triples must
// produce byte-identical persisted graphs and identical search results —
// the contract the replay gate and CI artifacts depend on.
func TestHNSWDeterministicBuild(t *testing.T) {
	enc := embed.NewEncoder()
	a := BuildHNSW(enc, corpus(800), HNSWConfig{})
	b := BuildHNSW(enc, corpus(800), HNSWConfig{})
	var bufA, bufB bytes.Buffer
	if err := a.WriteGraph(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteGraph(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("two builds over identical input produced different graphs")
	}
	for _, q := range []string{"Lake Superior 5 area", "Toronto 1 country"} {
		ka, kb := hitKeys(search(a, q, 10)), hitKeys(search(b, q, 10))
		if len(ka) != len(kb) {
			t.Fatalf("%q: %d vs %d hits", q, len(ka), len(kb))
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Errorf("%q hit %d: %s vs %s", q, i, ka[i], kb[i])
			}
		}
	}
}

// TestHNSWSearcherParity: the Searcher surface must behave like Sharded's —
// a batch agrees with each query searched alone and preserves query
// order, and the degenerate inputs return nil.
func TestHNSWSearcherParity(t *testing.T) {
	enc := embed.NewEncoder()
	h := BuildHNSW(enc, corpus(300), HNSWConfig{})
	q := "Lake Superior 3 area"
	want := hitKeys(search(h, q, 5))
	q2 := "Beijing 0 population"
	batch := h.BatchSearchWith(enc.Encode, []string{q, q2}, 5)
	if len(batch) != 2 || !equalStrings(hitKeys(batch[0]), want) || !equalStrings(hitKeys(batch[1]), hitKeys(search(h, q2, 5))) {
		t.Errorf("BatchSearchWith order or content wrong")
	}
	if search(h, q, 0) != nil {
		t.Error("k=0 returned hits")
	}
	if search(h, "", 5) != nil {
		t.Error("empty query returned hits")
	}
	if got := search(h, q, 1000); len(got) > h.Len() {
		t.Errorf("k>corpus returned %d hits from %d triples", len(got), h.Len())
	}
	empty := BuildHNSW(enc, nil, HNSWConfig{})
	if search(empty, q, 5) != nil || empty.Len() != 0 {
		t.Error("empty graph returned hits")
	}
	if info := h.Info(); info.Nodes != 300 || info.M != DefaultHNSWM {
		t.Errorf("info = %+v", info)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHNSWNarrowBeamReturnsFewer pins the ef<k degradation the exact-
// fallback escape hatch (and the CI recall gate's doctored run) relies
// on: a beam of width ef can fill at most ef of k slots.
func TestHNSWNarrowBeamReturnsFewer(t *testing.T) {
	enc := embed.NewEncoder()
	h := BuildHNSW(enc, corpus(500), HNSWConfig{})
	hits := h.SearchVectorEf(enc.Encode("Lake Superior 3 area"), 10, 2)
	if len(hits) > 2 {
		t.Fatalf("ef=2 k=10 returned %d hits, want <= 2", len(hits))
	}
}

// graphBytes is WriteGraph into memory.
func graphBytes(t testing.TB, g *HNSW) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteGraph(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// arenaOf returns an arena of chunks of size rows holding the triples.
func arenaOf(enc *embed.Encoder, triples []kg.Triple, size int) *Arena {
	a := NewArena(enc, size)
	a.Append(triples)
	return a
}

// TestGraphRoundTrip: a persisted graph holds adjacency only; ReadGraph
// rebinds node i to row i of an arena rebuilt from the same triples —
// whatever its chunk size — and the reloaded graph answers like the one
// that was written, and like one built over the rows it was bound to.
func TestGraphRoundTrip(t *testing.T) {
	enc := embed.NewEncoder()
	g := BuildHNSW(enc, corpus(200), HNSWConfig{})
	// Four chunks hold the covered rows, then an uncovered tail the binder
	// leaves alone.
	triples := append(corpus(200), corpus(30)...)
	a := arenaOf(enc, triples, 64)
	loaded, err := ReadGraph(bytes.NewReader(graphBytes(t, g)), a.View(triples))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != g.Len() || loaded.Config() != g.Config() {
		t.Fatalf("graph did not round trip: %d nodes %+v, want %d %+v", loaded.Len(), loaded.Config(), g.Len(), g.Config())
	}
	queries := []string{"Lake Superior 0 area", "Beijing 4 population"}
	for _, q := range queries {
		requireSameHits(t, "reloaded graph, "+q, search(loaded, q, 10), search(g, q, 10))
	}
	if loaded.a != a || len(loaded.chunks) != 4 {
		t.Fatalf("graph bound to %d chunks, want the four holding its rows", len(loaded.chunks))
	}
	for i := int32(0); int(i) < g.Len(); i++ {
		c, r := g.row(i)
		lc, lr := loaded.row(i)
		if lc != &loaded.chunks[i/64] || lr != int(i%64) {
			t.Fatalf("graph node %d bound to row %d of the wrong chunk", i, lr)
		}
		var v, lv embed.Vector
		c.rows.expand(r, &v)
		lc.rows.expand(lr, &lv)
		if lc.triples[lr].Key() != c.triples[r].Key() || lv != v {
			t.Fatalf("graph node %d bound to %v, built over %v", i, lc.triples[lr], c.triples[r])
		}
	}
	if !bytes.Equal(graphBytes(t, loaded), graphBytes(t, g)) {
		t.Error("write → read → write changed the bytes")
	}

	built := BuildGraph(a.View(triples[:200]), HNSWConfig{})
	for _, q := range queries {
		requireSameHits(t, "graph built over the bound rows, "+q, search(built, q, 10), search(loaded, q, 10))
	}
	if !bytes.Equal(graphBytes(t, built), graphBytes(t, g)) {
		t.Error("the same triples in chunks of another size built a different graph")
	}
}

// TestBuildGraphGoldenAndRetention builds a graph over rows an arena
// already holds and pins two things. The persisted bytes hash to the value
// computed at the last commit whose graph scored dense vectors with
// embed.NormDot: a kernel that changes one comparison anywhere in the build
// changes an edge. And the graph retains adjacency only — about 180 B a
// row; a private copy of the vectors would add 1 KiB a row.
func TestBuildGraphGoldenAndRetention(t *testing.T) {
	const (
		n      = 2000
		golden = "871fa17892411a5fedd996d647f1522df7fbef957e97ee5a6d56f72c8000d7ea"
	)
	enc := embed.NewEncoder()
	v := BuildSharded(enc, corpus(n), 512)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := BuildGraph(v, HNSWConfig{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if perRow := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n; perRow >= 512 {
		t.Errorf("graph over %d pre-built rows retains %.0f B/row, want < 512", n, perRow)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(graphBytes(t, g))); got != golden {
		t.Errorf("graph over corpus(%d) hashes to %s, want %s", n, got, golden)
	}
}

// TestReadGraphEveryPrefixFailsCleanly is the persistence robustness
// contract: every strict prefix of a valid graph file must error, never
// panic or load short.
func TestReadGraphEveryPrefixFailsCleanly(t *testing.T) {
	enc := embed.NewEncoder()
	v := BuildSharded(enc, corpus(12), 4)
	full := graphBytes(t, BuildHNSW(enc, corpus(12), HNSWConfig{}))
	for i := 0; i < len(full); i++ {
		if _, err := ReadGraph(bytes.NewReader(full[:i]), v); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", i, len(full))
		}
	}
	if _, err := ReadGraph(bytes.NewReader(full), v); err != nil {
		t.Fatalf("full file failed to load: %v", err)
	}
}

// TestReadGraphRejectsBrokenStructure doctors one field at a time of a
// valid file: traversal indexes links[neighbor][layer] unchecked, so the
// reader must refuse anything that would send it out of range.
func TestReadGraphRejectsBrokenStructure(t *testing.T) {
	enc := embed.NewEncoder()
	v := BuildSharded(enc, corpus(12), 4)
	g := BuildHNSW(enc, corpus(12), HNSWConfig{})
	good := graphBytes(t, g)
	// Header: magic[8] nodes[4] dim M efC efS entry maxLevel seed[8]; then per
	// node: layer count, and per layer: neighbor count, ids.
	const (
		offDim      = 12
		offM        = 16
		offEntry    = 28
		offMaxLevel = 32
		offNode0    = 44
	)
	if len(g.links[0]) != 1 || len(g.links[0][0]) <= 4 {
		t.Fatalf("corpus drew node 0 above layer 0 or with at most 4 neighbors: %v", g.links[0])
	}
	for name, doctor := range map[string]func(b []byte){
		"magic":                  func(b []byte) { b[7] = 9 },
		"dimension":              func(b []byte) { binary.LittleEndian.PutUint32(b[offDim:], embed.Dim+1) },
		"M of one":               func(b []byte) { binary.LittleEndian.PutUint32(b[offM:], 1) },
		"entry out of range":     func(b []byte) { binary.LittleEndian.PutUint32(b[offEntry:], 12) },
		"max level out of range": func(b []byte) { binary.LittleEndian.PutUint32(b[offMaxLevel:], maxHNSWLevel+1) },
		"entry below max level":  func(b []byte) { binary.LittleEndian.PutUint32(b[offMaxLevel:], maxHNSWLevel) },
		"node without layers":    func(b []byte) { binary.LittleEndian.PutUint32(b[offNode0:], 0) },
		"neighbor count":         func(b []byte) { binary.LittleEndian.PutUint32(b[offNode0+4:], 13) },
		// Node 0's layer-0 list is longer than 2·M once M reads 2.
		"neighbor count above the degree bound": func(b []byte) { binary.LittleEndian.PutUint32(b[offM:], 2) },
		"neighbor id":                           func(b []byte) { binary.LittleEndian.PutUint32(b[offNode0+8:], 12) },
		// Node 0 claims a second layer it has no list for: the stream
		// shifts and some later field lands out of range or short.
		"layer count": func(b []byte) { binary.LittleEndian.PutUint32(b[offNode0:], 2) },
	} {
		bad := bytes.Clone(good)
		doctor(bad)
		if _, err := ReadGraph(bytes.NewReader(bad), v); err == nil {
			t.Errorf("%s: doctored graph loaded", name)
		}
	}
}

// TestReadGraphRejectsMoreNodesThanRows: a graph binds to the view's
// first rows, wherever they end in a chunk, and a graph over more rows
// than the view holds is corrupt and must be rejected at load.
func TestReadGraphRejectsMoreNodesThanRows(t *testing.T) {
	enc := embed.NewEncoder()
	file := graphBytes(t, BuildHNSW(enc, corpus(50), HNSWConfig{}))
	g, err := ReadGraph(bytes.NewReader(file), BuildSharded(enc, corpus(100), 32))
	if err != nil || g.Len() != 50 {
		t.Fatalf("a 50-node graph over a 100-row arena of 32-row chunks: %v", err)
	}
	if _, err := ReadGraph(bytes.NewReader(file), BuildSharded(enc, corpus(32), 32)); err == nil {
		t.Fatal("graph larger than the arena accepted")
	}
}

// FuzzReadGraph: graph.bin is read from disk and from bootstrap tarballs.
// Whatever the bytes, the reader must not panic, must not allocate more
// than its input backs (readAllocBound), and a graph it accepts must be
// safe to search. Seeds: the three below, and under
// testdata/fuzz/FuzzReadGraph the graph.bin of a checkpoint a durable
// -ann substrate manager wrote over twelve triples, and a header whose
// node count reads 0x30303030 ("0000") over a first neighbor count as
// large, which once made the reader ask for 3.2 GB.
func FuzzReadGraph(f *testing.F) {
	enc := embed.NewEncoder()
	v := BuildSharded(enc, corpus(12), 4)
	good := graphBytes(f, BuildHNSW(enc, corpus(12), HNSWConfig{}))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("garbage"))
	qv := enc.Encode("Lake Superior 3 area")
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadGraph(bytes.NewReader(data), v)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > readAllocBound(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if hits := g.SearchVectorEf(qv, 5, 16); len(hits) > g.Len() {
			t.Fatalf("%d hits from %d nodes", len(hits), g.Len())
		}
	})
}

// readAllocBound is the most a graph read may allocate from n bytes of
// input: a fixed allowance (the reader's buffer, and one neighbor list of
// the largest degree the header's M allows before a short read ends it)
// plus a multiple of the input, since every node, layer and neighbor
// costs the reader input bytes.
func readAllocBound(n int) uint64 { return 2<<20 + 64*uint64(n) }

// TestHybridMatchesExact: with a full-width beam the hybrid's
// graph-over-base + exact-tail merge must reproduce the pure exact
// scan, covered prefix and uncovered tail alike.
func TestHybridMatchesExact(t *testing.T) {
	enc := embed.NewEncoder()
	c := corpus(300)
	a := arenaOf(enc, c, 64)
	// Graph over the first 250 rows; a tail of 50 straddling two chunks.
	g := BuildGraph(a.View(c[:250]), HNSWConfig{})
	var counters ANNCounters
	exact := a.View(c)
	hy := NewHybrid(exact, g, HybridOptions{EfSearch: 512, Counters: &counters})
	for _, q := range []string{"Lake Superior 3 area", "Toronto 48 country", "Beijing 40 population"} {
		want := exact.SearchExact(q, 10)
		got := search(hy, q, 10)
		if len(got) != len(want) {
			t.Fatalf("%q: %d hits, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Triple.Key() != want[i].Triple.Key() || got[i].Score != want[i].Score {
				t.Errorf("%q hit %d: got %v@%g want %v@%g",
					q, i, got[i].Triple, got[i].Score, want[i].Triple, want[i].Score)
			}
		}
	}
	if counters.Searches.Load() == 0 || counters.Fallbacks.Load() != 0 {
		t.Errorf("counters: searches=%d fallbacks=%d", counters.Searches.Load(), counters.Fallbacks.Load())
	}
}

// TestHybridExactFallback: a beam narrower than k routes to the exact
// scan (counted), k within the beam is served by the graph, and a
// hybrid without a graph always answers exactly.
func TestHybridExactFallback(t *testing.T) {
	enc := embed.NewEncoder()
	c := corpus(200)
	a := arenaOf(enc, c, 64)
	g := BuildGraph(a.View(c[:192]), HNSWConfig{})
	var counters ANNCounters
	hy := NewHybrid(a.View(c), g, HybridOptions{EfSearch: 3, Counters: &counters})
	hits := search(hy, "Lake Superior 0 area", 10)
	if len(hits) != 10 {
		t.Fatalf("fallback returned %d hits, want 10", len(hits))
	}
	if counters.Fallbacks.Load() != 1 || counters.Searches.Load() != 0 {
		t.Errorf("counters: searches=%d fallbacks=%d", counters.Searches.Load(), counters.Fallbacks.Load())
	}
	// Narrow beam but k within it: graph path serves.
	search(hy, "Lake Superior 0 area", 2)
	if counters.Searches.Load() != 1 {
		t.Errorf("k<=ef did not use the graph: searches=%d", counters.Searches.Load())
	}
	// A hybrid without any graph always falls back.
	var c2 ANNCounters
	exactOnly := NewHybrid(a.View(c), nil, HybridOptions{Counters: &c2})
	if hits := search(exactOnly, "Lake Superior 0 area", 5); len(hits) != 5 {
		t.Fatalf("graph-less hybrid returned %d hits", len(hits))
	}
	if c2.Fallbacks.Load() != 1 {
		t.Errorf("graph-less hybrid did not count fallback")
	}
}

// TestHybridMisalignedGraphDegrades: NewHybrid must refuse a graph that
// is not over the first rows of the view it serves — one over equal rows
// held in another arena, one over more rows than the view holds — and
// serve exact.
func TestHybridMisalignedGraphDegrades(t *testing.T) {
	enc := embed.NewEncoder()
	c := corpus(200)
	a := arenaOf(enc, c, 64)
	for name, g := range map[string]*HNSW{
		"other arena":   BuildHNSW(enc, corpus(100), HNSWConfig{}),
		"too many rows": BuildGraph(a.View(c), HNSWConfig{}),
	} {
		var counters ANNCounters
		hy := NewHybrid(a.View(c[:150]), g, HybridOptions{Counters: &counters})
		hits := search(hy, "Lake Superior 0 area", 5)
		if len(hits) != 5 {
			t.Fatalf("%s: degraded hybrid returned %d hits", name, len(hits))
		}
		if counters.Fallbacks.Load() != 1 {
			t.Errorf("%s: misaligned graph was not rejected", name)
		}
	}
}
