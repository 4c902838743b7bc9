package world

import (
	"runtime"
	"testing"

	"repro/internal/kg"
	"repro/internal/racedetect"
)

// maxBytesPerTriple bounds the live heap the two rendered seed stores
// hold per triple: 120.6 B measured on linux/amd64 with go1.24, plus 10 %.
// One more map keyed by each fact's surface string (Triple.Key) takes it
// to 230 B; a store that kept two such maps and a lower-cased copy of an
// entity's name per Freebase fact cost 359 B.
const maxBytesPerTriple = 133

// TestRenderedStoresBytesPerTriple pins what the seed stores cost in
// memory: every node keeps both of them for its lifetime. The world stays
// alive throughout, so only what Render adds is counted.
func TestRenderedStoresBytesPerTriple(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	w := MustGenerate(DefaultConfig())
	before := liveHeap()
	stores := []*kg.Store{WikidataSchema().Render(w), FreebaseSchema().Render(w)}
	after := liveHeap()
	triples := 0
	for _, st := range stores {
		triples += st.Len()
	}
	perTriple := float64(after-before) / float64(triples)
	t.Logf("%d triples, %.1f B per triple", triples, perTriple)
	if perTriple > maxBytesPerTriple {
		t.Errorf("the rendered stores hold %.1f B per triple, want at most %d", perTriple, maxBytesPerTriple)
	}
	runtime.KeepAlive(w)
	runtime.KeepAlive(stores)
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
