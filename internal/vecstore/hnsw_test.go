package vecstore

import (
	"bytes"
	"testing"

	"repro/internal/embed"
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
			got := h.Search(q, k)
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
		for _, g := range h.Search(q, 10) {
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
	if _, err := a.writeGraphTo(&bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.writeGraphTo(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("two builds over identical input produced different graphs")
	}
	for _, q := range []string{"Lake Superior 5 area", "Toronto 1 country"} {
		ka, kb := hitKeys(a.Search(q, 10)), hitKeys(b.Search(q, 10))
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

// TestHNSWSearcherParity: the Searcher surface must behave like Index's —
// the pre-encoded path agrees with Search, batches preserve query order,
// and the degenerate inputs return nil.
func TestHNSWSearcherParity(t *testing.T) {
	enc := embed.NewEncoder()
	h := BuildHNSW(enc, corpus(300), HNSWConfig{})
	q := "Lake Superior 3 area"
	want := hitKeys(h.Search(q, 5))
	if got := hitKeys(h.searchPreEncoded(q, enc.Encode(q), 5)); !equalStrings(got, want) {
		t.Errorf("searchPreEncoded: %v, want %v", got, want)
	}
	batch := h.BatchSearchWith(enc.Encode, []string{q, "Beijing 0 population"}, 5)
	if len(batch) != 2 || !equalStrings(hitKeys(batch[0]), want) {
		t.Errorf("BatchSearchWith order or content wrong")
	}
	if h.Search(q, 0) != nil {
		t.Error("k=0 returned hits")
	}
	if h.Search("", 5) != nil {
		t.Error("empty query returned hits")
	}
	if got := h.Search(q, 1000); len(got) > h.Len() {
		t.Errorf("k>corpus returned %d hits from %d triples", len(got), h.Len())
	}
	empty := BuildHNSW(enc, nil, HNSWConfig{})
	if empty.Search(q, 5) != nil || empty.Len() != 0 {
		t.Error("empty graph returned hits")
	}
	st := h.Stats()
	if st.ANN == nil || st.ANN.Nodes != 300 || st.ANN.M != DefaultHNSWM {
		t.Errorf("stats = %+v", st.ANN)
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

// TestShardsHNSWRoundTrip: the v2 container carries the graph next to
// the exact segments, rebinding graph nodes to the renumbered combined
// ID space without storing vectors twice.
func TestShardsHNSWRoundTrip(t *testing.T) {
	enc := embed.NewEncoder()
	triples := corpus(200)
	shards := BuildShards(enc, triples, 64)
	g := BuildHNSW(enc, corpus(200), HNSWConfig{})
	var buf bytes.Buffer
	if _, err := WriteShardsHNSW(&buf, shards, g); err != nil {
		t.Fatal(err)
	}
	loadedShards, loaded, err := ReadShardsHNSW(bytes.NewReader(buf.Bytes()), enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(loadedShards) != len(shards) {
		t.Fatalf("%d shards, want %d", len(loadedShards), len(shards))
	}
	if loaded == nil || loaded.Len() != g.Len() {
		t.Fatalf("graph did not round trip: %v", loaded)
	}
	for _, q := range []string{"Lake Superior 0 area", "Beijing 4 population"} {
		want := hitKeys(g.Search(q, 10))
		got := hitKeys(loaded.Search(q, 10))
		if !equalStrings(got, want) {
			t.Errorf("%q: reloaded graph answers differ:\n got %v\nwant %v", q, got, want)
		}
	}
	// Node i must be bound to combined triple i.
	for i, tr := range loaded.triples {
		if tr.ID != i {
			t.Fatalf("graph triple %d has ID %d after renumbering", i, tr.ID)
		}
	}
}

// TestWriteShardsHNSWNilGraphIsV1: without a graph the writer emits the
// v1 container byte for byte, so enabling the ANN build path cannot
// perturb existing checkpoints.
func TestWriteShardsHNSWNilGraphIsV1(t *testing.T) {
	enc := embed.NewEncoder()
	shards := BuildShards(enc, corpus(50), 16)
	var v1, v2 bytes.Buffer
	if _, err := WriteShards(&v1, shards); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteShardsHNSW(&v2, shards, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1.Bytes(), v2.Bytes()) {
		t.Fatal("nil-graph WriteShardsHNSW differs from WriteShards")
	}
}

// TestReadShardsDropsGraph: legacy callers reading a v2 container get
// the exact segments and silently lose the graph — never an error.
func TestReadShardsDropsGraph(t *testing.T) {
	enc := embed.NewEncoder()
	shards := BuildShards(enc, corpus(100), 32)
	g := BuildHNSW(enc, corpus(100), HNSWConfig{})
	var buf bytes.Buffer
	if _, err := WriteShardsHNSW(&buf, shards, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadShards(bytes.NewReader(buf.Bytes()), enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(shards) {
		t.Fatalf("%d shards, want %d", len(loaded), len(shards))
	}
}

// TestReadShardsHNSWEveryPrefixFailsCleanly extends the persistence
// robustness contract to the v2 container: every strict prefix must
// error, never panic or load short.
func TestReadShardsHNSWEveryPrefixFailsCleanly(t *testing.T) {
	enc := embed.NewEncoder()
	triples := corpus(12)
	shards := BuildShards(enc, triples, 4)
	g := BuildHNSW(enc, corpus(12), HNSWConfig{})
	var buf bytes.Buffer
	if _, err := WriteShardsHNSW(&buf, shards, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := 0; i < len(full); i++ {
		if _, _, err := ReadShardsHNSW(bytes.NewReader(full[:i]), enc); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", i, len(full))
		}
	}
	if _, _, err := ReadShardsHNSW(bytes.NewReader(full), enc); err != nil {
		t.Fatalf("full container failed to load: %v", err)
	}
}

// TestBindGraphRejectsMisalignedBoundary: a graph that does not end on
// a segment boundary is corrupt and must be rejected at load.
func TestBindGraphRejectsMisalignedBoundary(t *testing.T) {
	enc := embed.NewEncoder()
	shards := BuildShards(enc, corpus(100), 32) // boundaries at 32, 64, 96, 100
	g := BuildHNSW(enc, corpus(50), HNSWConfig{})
	var buf bytes.Buffer
	if _, err := WriteShardsHNSW(&buf, shards, g); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadShardsHNSW(bytes.NewReader(buf.Bytes()), enc); err == nil {
		t.Fatal("misaligned graph boundary accepted")
	}
}

// TestHybridMatchesExact: with a full-width beam the hybrid's
// graph-over-base + exact-tail merge must reproduce the pure exact
// scan, covered prefix and uncovered tail alike.
func TestHybridMatchesExact(t *testing.T) {
	enc := embed.NewEncoder()
	triples := corpus(300)
	segs := BuildShards(enc, triples, 64)
	// Graph over the first 4 segments (256 triples); tail of 44.
	g := BuildHNSW(enc, corpus(256), HNSWConfig{EfSearch: 512})
	var counters ANNCounters
	hy := ComposeHybrid(enc, g, segs, HybridOptions{Counters: &counters})
	exact := Compose(enc, segs...)
	if hy.Len() != exact.Len() {
		t.Fatalf("hybrid len %d, want %d", hy.Len(), exact.Len())
	}
	for _, q := range []string{"Lake Superior 3 area", "Toronto 48 country", "Beijing 40 population"} {
		want := exact.SearchExact(q, 10)
		got := hy.Search(q, 10)
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
	st := hy.Stats()
	if st.ANN == nil || st.ANN.Nodes != 256 || st.ANN.Searches == 0 {
		t.Errorf("hybrid stats = %+v", st.ANN)
	}
}

// TestHybridExactFallback: a beam narrower than k routes to the exact
// scan (counted), k within the beam is served by the graph, and a
// hybrid without a graph always answers exactly.
func TestHybridExactFallback(t *testing.T) {
	enc := embed.NewEncoder()
	segs := BuildShards(enc, corpus(200), 64)
	g := BuildHNSW(enc, corpus(192), HNSWConfig{})
	var counters ANNCounters
	hy := ComposeHybrid(enc, g, segs, HybridOptions{EfSearch: 3, Counters: &counters})
	hits := hy.Search("Lake Superior 0 area", 10)
	if len(hits) != 10 {
		t.Fatalf("fallback returned %d hits, want 10", len(hits))
	}
	if counters.Fallbacks.Load() != 1 || counters.Searches.Load() != 0 {
		t.Errorf("counters: searches=%d fallbacks=%d", counters.Searches.Load(), counters.Fallbacks.Load())
	}
	// Narrow beam but k within it: graph path serves.
	hy.Search("Lake Superior 0 area", 2)
	if counters.Searches.Load() != 1 {
		t.Errorf("k<=ef did not use the graph: searches=%d", counters.Searches.Load())
	}
	// A hybrid without any graph always falls back.
	var c2 ANNCounters
	exactOnly := ComposeHybrid(enc, nil, segs, HybridOptions{Counters: &c2})
	if hits := exactOnly.Search("Lake Superior 0 area", 5); len(hits) != 5 {
		t.Fatalf("graph-less hybrid returned %d hits", len(hits))
	}
	if c2.Fallbacks.Load() != 1 {
		t.Errorf("graph-less hybrid did not count fallback")
	}
}

// TestHybridMisalignedGraphDegrades: ComposeHybrid must refuse a graph
// whose coverage does not end on a segment boundary and serve exact.
func TestHybridMisalignedGraphDegrades(t *testing.T) {
	enc := embed.NewEncoder()
	segs := BuildShards(enc, corpus(200), 64)
	g := BuildHNSW(enc, corpus(100), HNSWConfig{}) // 100 is not a boundary
	var counters ANNCounters
	hy := ComposeHybrid(enc, g, segs, HybridOptions{Counters: &counters})
	hits := hy.Search("Lake Superior 0 area", 5)
	if len(hits) != 5 {
		t.Fatalf("degraded hybrid returned %d hits", len(hits))
	}
	if counters.Fallbacks.Load() != 1 {
		t.Error("misaligned graph was not rejected")
	}
}
