package substrate

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/vecstore"
)

// search is s's top k for q alone, as a method's batch search gets it.
func search(s vecstore.Searcher, q string, k int) []vecstore.Hit {
	return s.BatchSearchWith(s.Encoder().Encode, []string{q}, k)[0]
}

func baseStore(n int) *kg.Store {
	st := kg.NewStore(kg.SourceWikidata)
	for i := 0; i < n; i++ {
		st.Add(kg.Triple{
			Subject:  fmt.Sprintf("Entity %d", i),
			Relation: "related to",
			Object:   fmt.Sprintf("Entity %d", (i+1)%n),
		})
	}
	st.Freeze()
	return st
}

func newTestManager(t *testing.T, n int, cfg Config) *Manager {
	t.Helper()
	return NewManager(embed.NewEncoder(), baseStore(n), cfg)
}

func TestBootSnapshot(t *testing.T) {
	m := newTestManager(t, 50, Config{ShardSize: 16})
	snap := m.Current()
	if snap.Epoch != 1 {
		t.Errorf("boot epoch = %d, want 1", snap.Epoch)
	}
	if snap.Store.Len() != 50 || snap.view.Len() != 50 {
		t.Errorf("boot snapshot: store=%d index=%d, want 50/50", snap.Store.Len(), snap.view.Len())
	}
	if st := m.Stats(); st.Shards != 4 { // ceil(50/16)
		t.Errorf("shards = %d, want 4", st.Shards)
	}
}

func TestIngestPublishesNewEpoch(t *testing.T) {
	m := newTestManager(t, 20, Config{ShardSize: 8})
	before := m.Current()

	res, err := m.Ingest([]kg.Triple{{Subject: "Zorblax", Relation: "prime directive", Object: "Flumox"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 1 || res.Epoch != before.Epoch+1 {
		t.Errorf("ingest result = %+v", res)
	}

	// The old snapshot is untouched: a reader that resolved it pre-swap
	// keeps a consistent view.
	if before.Store.HasSubject("Zorblax") || before.view.Len() != 20 {
		t.Error("published snapshot leaked into a previously-resolved one")
	}

	after := m.Current()
	if !after.Store.HasSubject("Zorblax") {
		t.Error("ingested subject missing from the new snapshot's store")
	}
	if after.view.Len() != 21 || after.Store.Len() != 21 {
		t.Errorf("new snapshot: index=%d store=%d, want 21/21", after.view.Len(), after.Store.Len())
	}
	hits := search(after.Index, "Zorblax prime directive", 3)
	if len(hits) == 0 || hits[0].Triple.Subject != "Zorblax" {
		t.Errorf("ingested triple not retrievable: %v", hits)
	}
	// Index and store agree on IDs: a delta hit's Triple.ID must resolve
	// to the same fact through the snapshot's store.
	if id, all := hits[0].Triple.ID, after.Store.All(); id >= len(all) || !all[id].Equal(hits[0].Triple) {
		t.Errorf("hit ID %d does not resolve to %v", id, hits[0].Triple)
	}
}

func TestIngestDedupAndValidation(t *testing.T) {
	m := newTestManager(t, 10, Config{})
	dup := kg.Triple{Subject: "Entity 0", Relation: "related to", Object: "Entity 1"} // already in base
	res, err := m.Ingest([]kg.Triple{dup})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 0 || res.Skipped != 1 {
		t.Errorf("base duplicate: %+v", res)
	}
	if res.Epoch != 1 {
		t.Errorf("no-op ingest bumped the epoch to %d", res.Epoch)
	}

	fresh := kg.Triple{Subject: "New", Relation: "r", Object: "o"}
	if res, _ = m.Ingest([]kg.Triple{fresh, fresh}); res.Added != 1 || res.Skipped != 1 {
		t.Errorf("in-batch duplicate: %+v", res)
	}
	// Re-ingesting a delta-resident fact is also a skip.
	if res, _ = m.Ingest([]kg.Triple{fresh}); res.Added != 0 || res.Skipped != 1 {
		t.Errorf("delta duplicate: %+v", res)
	}

	if _, err := m.Ingest([]kg.Triple{{Subject: "x", Relation: "", Object: "y"}}); err == nil {
		t.Error("structurally empty triple accepted")
	}
}

func TestCompactFoldsDelta(t *testing.T) {
	m := newTestManager(t, 30, Config{ShardSize: 8})
	for i := 0; i < 5; i++ {
		if _, err := m.Ingest([]kg.Triple{{Subject: fmt.Sprintf("D%d", i), Relation: "r", Object: "o"}}); err != nil {
			t.Fatal(err)
		}
	}
	pre := m.Stats()
	if pre.DeltaTriples != 5 || pre.BaseTriples != 30 {
		t.Fatalf("pre-compaction stats: %+v", pre)
	}

	snap, err := m.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.BaseTriples != 35 || snap.DeltaTriples != 0 {
		t.Errorf("post-compaction snapshot: %+v", snap)
	}
	if snap.Epoch != pre.Epoch+1 {
		t.Errorf("compaction epoch = %d, want %d", snap.Epoch, pre.Epoch+1)
	}
	// The folded facts stay retrievable.
	if hits := search(snap.Index, "D3 r o", 1); len(hits) == 0 || hits[0].Triple.Subject != "D3" {
		t.Errorf("compacted fact lost: %v", hits)
	}
	if !snap.Store.HasSubject("D3") {
		t.Error("compacted subject missing from store")
	}
	// Compacting an empty delta is a no-op.
	again, err := m.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Epoch != snap.Epoch {
		t.Error("empty compaction bumped the epoch")
	}
}

func TestAutoCompaction(t *testing.T) {
	m := newTestManager(t, 10, Config{ShardSize: 8, CompactThreshold: 3})
	for i := 0; i < 3; i++ {
		if _, err := m.Ingest([]kg.Triple{{Subject: fmt.Sprintf("A%d", i), Relation: "r", Object: "o"}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := m.Stats(); st.Compactions >= 1 && st.DeltaTriples == 0 {
			if st.BaseTriples != 13 {
				t.Errorf("auto-compacted base = %d, want 13", st.BaseTriples)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("auto-compaction never ran: %+v", m.Stats())
}

// TestSnapshotConsistencyUnderChurn is the mid-ingest consistency
// guarantee: while writers ingest and compact, every reader that resolves
// a snapshot must observe an internally consistent view — index and store
// agree on length, every ingested subject the store knows is retrievable,
// and the view never changes while held.
func TestSnapshotConsistencyUnderChurn(t *testing.T) {
	m := newTestManager(t, 40, Config{ShardSize: 16})
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: ingest a stream of fresh facts, compacting periodically.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, err := m.Ingest([]kg.Triple{{Subject: fmt.Sprintf("Live %d", i), Relation: "streamed", Object: fmt.Sprintf("v%d", i)}})
			if err != nil {
				t.Error(err)
				return
			}
			if i%7 == 0 {
				_, err := m.Compact(context.Background())
				if err != nil && err != ErrCompacting {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Readers: resolve, then interrogate the held snapshot repeatedly.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Current()
				if snap.Store.Len() != snap.view.Len() {
					t.Errorf("epoch %d: store %d != index %d", snap.Epoch, snap.Store.Len(), snap.view.Len())
					return
				}
				if snap.Store.Len() != snap.BaseTriples+snap.DeltaTriples {
					t.Errorf("epoch %d: len %d != base %d + delta %d", snap.Epoch, snap.Store.Len(), snap.BaseTriples, snap.DeltaTriples)
					return
				}
				// The view must not move while held.
				n := snap.Store.Len()
				for i := 0; i < 3; i++ {
					if snap.Store.Len() != n || snap.view.Len() != n {
						t.Errorf("epoch %d: snapshot changed while held", snap.Epoch)
						return
					}
					all := snap.Store.All()
					if len(all) != n {
						t.Errorf("epoch %d: All() = %d, want %d", snap.Epoch, len(all), n)
						return
					}
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Epochs advanced and nothing was lost: after a final compaction all
	// streamed facts are in the base.
	st := m.Stats()
	if st.Epoch < 3 {
		t.Errorf("churn produced only epoch %d", st.Epoch)
	}
}

// TestIngestUpdatesTimeVaryingFact: ingesting a new value for an
// existing (subject, relation) without an explicit ordinal must make it
// the *latest* value — not sort as the oldest — so verification's
// "pick the last one" rule answers with the update.
func TestIngestUpdatesTimeVaryingFact(t *testing.T) {
	base := kg.NewStore(kg.SourceWikidata)
	base.AddAll([]kg.Triple{
		{Subject: "X", Relation: "population", Object: "1000", Ord: 0},
		{Subject: "X", Relation: "population", Object: "2000", Ord: 1},
	})
	base.Freeze()
	m := NewManager(embed.NewEncoder(), base, Config{})

	// The README-walkthrough shape: no ord field.
	if _, err := m.Ingest([]kg.Triple{{Subject: "X", Relation: "population", Object: "3000"}}); err != nil {
		t.Fatal(err)
	}
	sr := m.Current().Store.SubjectRelation("X", "population")
	if len(sr) != 3 || sr[2].Object != "3000" {
		t.Fatalf("ingested update is not the latest value: %v", sr)
	}

	// A second ingest stacks after the first.
	if _, err := m.Ingest([]kg.Triple{{Subject: "X", Relation: "population", Object: "4000"}}); err != nil {
		t.Fatal(err)
	}
	sr = m.Current().Store.SubjectRelation("X", "population")
	if len(sr) != 4 || sr[3].Object != "4000" {
		t.Fatalf("second update is not the latest value: %v", sr)
	}

	// Ordering survives compaction.
	if _, err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	sr = m.Current().Store.SubjectRelation("X", "population")
	if len(sr) != 4 || sr[3].Object != "4000" || sr[0].Object != "1000" {
		t.Fatalf("post-compaction ordering broken: %v", sr)
	}

	// A brand-new (subject, relation) with no ordinal keeps Ord 0.
	if _, err := m.Ingest([]kg.Triple{{Subject: "Y", Relation: "area", Object: "7"}}); err != nil {
		t.Fatal(err)
	}
	if sr := m.Current().Store.SubjectRelation("Y", "area"); len(sr) != 1 || sr[0].Ord != 0 {
		t.Fatalf("fresh SR pair gained a spurious ordinal: %v", sr)
	}
}

// TestManySmallIngestsCoalesce: many one-triple ingests do not fan the
// snapshot out — its blocks stay the shard size's cut of its rows, however
// many batches appended them — and everything remains retrievable.
func TestManySmallIngestsCoalesce(t *testing.T) {
	m := newTestManager(t, 10, Config{ShardSize: 8})
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := m.Ingest([]kg.Triple{{Subject: fmt.Sprintf("Tiny %d", i), Relation: "r", Object: "o"}}); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Current()
	if snap.view.Len() != 10+n {
		t.Fatalf("index len = %d, want %d", snap.view.Len(), 10+n)
	}
	if shards := snap.view.Shards(); shards != 7 { // ceil(50/8)
		t.Errorf("%d ingests left %d blocks, want 7", n, shards)
	}
	for _, i := range []int{0, 15, n - 1} {
		q := fmt.Sprintf("Tiny %d r o", i)
		hits := search(snap.Index, q, 1)
		if len(hits) == 0 || hits[0].Triple.Subject != fmt.Sprintf("Tiny %d", i) {
			t.Errorf("%q not retrievable after many ingests: %v", q, hits)
		}
	}
}

// TestSnapshotReaderSemantics: a snapshot after an ingest reads the seed
// and the ingested triples as one store: one ID space, (subject,
// relation) lists in Ord order, caller-owned results.
func TestSnapshotReaderSemantics(t *testing.T) {
	m := newTestManager(t, 5, Config{})
	// Ingest a two-value time-varying history (explicit ordinals) to
	// prove SR ordering, plus a brand-new subject.
	if _, err := m.Ingest([]kg.Triple{
		{Subject: "Entity 0", Relation: "population", Object: "50", Ord: 0},
		{Subject: "Entity 0", Relation: "population", Object: "100", Ord: 1},
		{Subject: "Fresh", Relation: "r", Object: "Entity 1"},
	}); err != nil {
		t.Fatal(err)
	}
	store := m.Current().Store

	sr := store.SubjectRelation("Entity 0", "population")
	if len(sr) != 2 || sr[0].Object != "50" || sr[1].Object != "100" {
		t.Errorf("SR list not chronological: %v", sr)
	}

	// IDs are rows of one store.
	all := store.All()
	if len(all) != 8 {
		t.Fatalf("All = %d triples, want 8", len(all))
	}
	for i, tr := range all {
		if tr.ID != i {
			t.Errorf("All[%d].ID = %d", i, tr.ID)
		}
	}

	if !store.Contains(kg.Triple{Subject: "Fresh", Relation: "r", Object: "Entity 1"}) {
		t.Error("Contains missed an ingested triple")
	}
	if s, ok := store.FindSubjectFold("fresh"); !ok || s != "Fresh" {
		t.Errorf("FindSubjectFold(fresh) = %q ok=%v", s, ok)
	}
	// Accessor results are caller-owned (the Reader contract).
	sub := store.Subject("Entity 0")
	sub[0].Subject = "CORRUPTED"
	if store.Subject("Entity 0")[0].Subject == "CORRUPTED" {
		t.Error("Snapshot.Store.Subject aliases internal state")
	}
}

// TestSnapshotPrefixReadsMatchFrozenCopy: a snapshot reads the manager's
// store through a prefix view, which later ingests keep appending to.
// Across a schedule of ingests — time-varying values with and without
// ordinals, subjects that fold alike (an ingested "entity 3" over the
// seed's "Entity 3"), duplicates — that ingests sixteen batches before
// compacting, and compacts twice, every snapshot answers every read as a frozen
// store of its triples would, both when published and after the schedule
// moved on, and the snapshot a compaction publishes reads exactly as the
// one before it.
func TestSnapshotPrefixReadsMatchFrozenCopy(t *testing.T) {
	m := newTestManager(t, 12, Config{ShardSize: 8})
	rng := rand.New(rand.NewSource(5))
	subjects := []string{"Lake Superior", "LAKE SUPERIOR", "lake superior", "Entity 3", "entity 3", "Fresh", "Nobody"}
	relations := []string{"population", "related to", "area"}
	// The schedule ingests universe two triples at a time.
	universe := make([]kg.Triple, 80)
	for i := range universe {
		universe[i] = kg.NewTriple(subjects[rng.Intn(len(subjects)-1)], relations[rng.Intn(len(relations))], fmt.Sprint(rng.Intn(9)))
		if rng.Intn(3) == 0 {
			universe[i].Ord = 1 + rng.Intn(4)
		}
	}
	// reads renders every read of r on the probes: the whole-view reads
	// checkpoints make, then every read a method could make.
	reads := func(r interface {
		kg.Reader
		Source() kg.Source
		Len() int
		All() []kg.Triple
		Contains(kg.Triple) bool
	}) string {
		out := fmt.Sprint(r.Source(), r.Len(), r.All())
		for _, tr := range universe {
			out += fmt.Sprint(r.Contains(tr))
		}
		for _, s := range append(subjects, "Entity 11", "ENTITY 11") {
			out += fmt.Sprint(r.Subject(s), r.HasSubject(s))
			for _, q := range []string{s, strings.ToLower(s), strings.ToUpper(s)} {
				c, ok := r.FindSubjectFold(q)
				out += fmt.Sprint(c, ok)
			}
			for _, rel := range relations {
				out += fmt.Sprint(r.SubjectRelation(s, rel))
			}
		}
		return out
	}
	type held struct {
		snap *Snapshot
		want string
	}
	var snaps []held
	capture := func() {
		snap := m.Current()
		frozen := kg.NewStore(snap.Store.Source())
		frozen.AddAll(snap.Store.All())
		frozen.Freeze()
		snaps = append(snaps, held{snap, reads(frozen)})
		for _, h := range snaps {
			if got := reads(h.snap.Store); got != h.want {
				t.Fatalf("epoch %d, read at epoch %d: the snapshot's reads differ from its frozen copy's", h.snap.Epoch, snap.Epoch)
			}
		}
	}
	capture()
	for step := range len(universe) / 2 {
		if _, err := m.Ingest(universe[2*step : 2*step+2]); err != nil {
			t.Fatal(err)
		}
		if step == 24 && m.Stats().Ingests < 16 {
			t.Fatalf("%d ingests before the first compaction, want at least 16", m.Stats().Ingests)
		}
		if step == 24 || step == 36 {
			before := m.Current()
			after, err := m.Compact(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if reads(after.Store) != reads(before.Store) {
				t.Fatalf("the compaction to epoch %d changed a read of epoch %d's triples", after.Epoch, before.Epoch)
			}
		}
		capture()
	}
	if m.Stats().Compactions != 2 {
		t.Fatalf("%d compactions, want 2", m.Stats().Compactions)
	}
}
