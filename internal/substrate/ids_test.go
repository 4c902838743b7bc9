package substrate

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/kg"
)

// TestTripleIDsStableAcrossIngestCoalesceAndCompact pins the invariant
// answer read logs rely on: for a manager's lifetime a triple ID names
// one triple — subject, relation, object, source and ordinal — through
// many small ingests and compactions, and the index returns each triple
// under the ID the store gives it. A compaction, which changes no
// content, changes no read at all: every
// subject block, (subject, relation) list and top-k list is what it was.
func TestTripleIDsStableAcrossIngestCoalesceAndCompact(t *testing.T) {
	m := newTestManager(t, 20, Config{ShardSize: 8})
	named := map[int]kg.Triple{}
	queries := []string{"Entity 3 related to", "Fresh 5 r o", "Entity 1 population", "Fresh 17 r Entity 2"}
	check := func(stage string) {
		t.Helper()
		snap := m.Current()
		all := snap.Store.All()
		for _, tr := range all {
			if was, ok := named[tr.ID]; ok && was != tr {
				t.Fatalf("%s: ID %d named %v, now %v", stage, tr.ID, was, tr)
			}
			named[tr.ID] = tr
		}
		for _, q := range queries {
			for _, h := range search(snap.Index, q, 5) {
				if id := h.Triple.ID; id >= len(all) || all[id] != h.Triple {
					t.Fatalf("%s: the index returns %v as ID %d, not the store's", stage, h.Triple, id)
				}
			}
		}
	}
	// reads is every read a method could make of the snapshot, by ID.
	reads := func() string {
		snap := m.Current()
		var out []string
		for _, tr := range snap.Store.All() {
			out = append(out, fmt.Sprint(ids(snap.Store.Subject(tr.Subject)), ids(snap.Store.SubjectRelation(tr.Subject, tr.Relation))))
		}
		for _, q := range queries {
			for _, h := range search(snap.Index, q, 5) {
				out = append(out, fmt.Sprint(h.Triple.ID, h.Score))
			}
		}
		return fmt.Sprint(out)
	}
	ingest := func(triples ...kg.Triple) {
		t.Helper()
		if _, err := m.Ingest(triples); err != nil {
			t.Fatal(err)
		}
	}
	compact := func() {
		t.Helper()
		before := reads()
		if _, err := m.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
		if after := reads(); after != before {
			t.Fatalf("a compaction changed reads:\nbefore %s\nafter  %s", before, after)
		}
	}

	check("boot")
	for i := 0; i < 20; i++ { // 20 one-triple batches
		ingest(kg.NewTriple(fmt.Sprintf("Fresh %d", i), "r", fmt.Sprintf("Entity %d", i%5)))
		if i%4 == 0 {
			// A newer value of a base fact's (subject, relation) pair.
			ingest(kg.NewTriple("Entity 1", "population", fmt.Sprint(100+i)))
		}
		check(fmt.Sprint("ingest ", i))
	}
	compact()
	check("compaction")
	ingest(kg.NewTriple("Fresh 5", "r", "Entity 9"), kg.NewTriple("Late", "r", "o"))
	check("post-compaction ingest")
	compact()
	check("second compaction")
	if len(named) != m.Current().Store.Len() {
		t.Fatalf("%d IDs named, the store holds %d triples", len(named), m.Current().Store.Len())
	}
}

func ids(ts []kg.Triple) []int {
	out := make([]int, len(ts))
	for i, tr := range ts {
		out[i] = tr.ID
	}
	return out
}
