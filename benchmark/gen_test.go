package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/kg"
)

// sequence renders the first n requests of every stream of a workload —
// reads and ingest batches — exactly as they would go on the wire.
func sequence(t *testing.T, ip *inproc, w *workload, seed int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for stream := 0; stream <= w.readers; stream++ {
		zipf, kgs := w.zipf, w.kgs
		if stream == w.readers { // the writer's read-your-writes stream
			zipf, kgs = true, []kg.Source{ingestSource}
		}
		gen := newReadGen(seed, stream, len(ip.pool), zipf, kgs)
		for i := 0; i < n; i++ {
			op := gen.next()
			buf.Write(answerBody(ip.pool[op.Q].Text, op.KG))
		}
	}
	if !w.static() {
		for b := 0; b < 20; b++ {
			buf.Write(ingestBody(ingestSource, ingestBatch(w.Name, seed, b, w.batchSize)))
		}
	}
	return buf.Bytes()
}

func TestGeneratorsDeterministic(t *testing.T) {
	ip, err := newInproc()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a, b := sequence(t, ip, w, 7, 500), sequence(t, ip, w, 7, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request sequences", w.Name)
		}
		if c := sequence(t, ip, w, 8, 500); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w.Name)
		}
	}
}

func TestReadersDrawDifferentStreams(t *testing.T) {
	a := newReadGen(1, 0, 868, true, kgSources)
	b := newReadGen(1, 1, 868, true, kgSources)
	same := 0
	for i := 0; i < 200; i++ {
		x, y := a.next(), b.next()
		if x.Q == y.Q {
			same++
		}
		if x.KG == y.KG {
			t.Fatalf("request %d: both clients asked %s; they must alternate out of step", i, x.KG)
		}
	}
	if same == 200 {
		t.Error("two clients of one run drew the same question sequence")
	}
}

func TestZipfFavoursTheHeadAndUniformDoesNot(t *testing.T) {
	head := func(zipf bool) int {
		gen := newReadGen(3, 0, 868, zipf, kgSources)
		n := 0
		for i := 0; i < 10000; i++ {
			if gen.next().Q < 10 {
				n++
			}
		}
		return n
	}
	if z := head(true); z < 4000 {
		t.Errorf("zipf(1.3) sent %d of 10000 requests to the ten hottest questions, want most", z)
	}
	if u := head(false); u > 300 {
		t.Errorf("uniform sent %d of 10000 requests to ten of 868 questions, want about 115", u)
	}
}

// TestIngestedTriplesNeverCollide holds the property the triple-count
// check rests on: no ingested subject is a world entity or appears in
// either rendered KG, and no two ingested triples share a subject, so the
// server skips none.
func TestIngestedTriplesNeverCollide(t *testing.T) {
	ip, err := newInproc()
	if err != nil {
		t.Fatal(err)
	}
	taken := map[string]bool{}
	for _, e := range ip.world.Entities {
		taken[e.Name] = true
	}
	for _, src := range kgSources {
		st, err := ip.seedStore(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range st.All() {
			taken[tr.Subject], taken[tr.Object] = true, true
		}
	}
	seen := map[string]string{}
	for _, w := range workloads {
		if w.static() {
			continue
		}
		for _, seed := range []int64{1, 2, 1_000_001} {
			for b := 0; b < w.batches(30); b++ {
				for i, tr := range ingestBatch(w.Name, seed, b, w.batchSize) {
					at := fmt.Sprintf("%s seed %d batch %d triple %d", w.Name, seed, b, i)
					if taken[tr.Subject] || taken[tr.Object] {
						t.Fatalf("%s: %q is already in the world", at, tr.Subject)
					}
					// Seeds a million apart share a suffix by design (the
					// width is fixed); within what one run sends, subjects
					// must be unique.
					key := fmt.Sprintf("%d/%s", seed, tr.Subject)
					if prev, dup := seen[key]; dup {
						t.Fatalf("%s: subject %q already used by %s", at, tr.Subject, prev)
					}
					seen[key] = at
				}
			}
		}
	}
}

func TestPoolEntriesAreDistinctCacheKeys(t *testing.T) {
	ip, err := newInproc()
	if err != nil {
		t.Fatal(err)
	}
	if len(ip.pool) < 860 || len(ip.pool) > 870 {
		t.Errorf("pool has %d questions, want the 870-question suite less a few shared cache keys", len(ip.pool))
	}
}
