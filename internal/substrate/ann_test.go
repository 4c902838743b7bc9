package substrate

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/vecstore"
)

func annConfig(shardSize int) Config {
	return Config{ShardSize: shardSize, ANN: ANNConfig{Enabled: true}}
}

// TestANNLifecycle walks the approximate/exact split through the
// snapshot lifecycle: boot builds a graph over the base, ingests stay
// exact-scan in the delta (graph coverage unchanged), and compaction
// folds everything into a new full-coverage graph.
func TestANNLifecycle(t *testing.T) {
	m := newTestManager(t, 50, annConfig(16))
	st := m.Stats()
	if st.ANN == nil || st.ANN.Nodes != 50 {
		t.Fatalf("boot ANN stats = %+v, want 50-node graph", st.ANN)
	}

	ingestN(t, m, 6, "ann")
	st = m.Stats()
	if st.ANN.Nodes != 50 {
		t.Fatalf("post-ingest graph covers %d nodes, want 50 (delta stays exact)", st.ANN.Nodes)
	}
	// Delta triples must be findable through the hybrid view.
	snap := m.Current()
	hits := search(snap.Index, "Ingested ann 3 discovered in", 3)
	if len(hits) == 0 || hits[0].Triple.Subject != "Ingested ann 3" {
		t.Fatalf("delta triple not served through hybrid: %v", hits)
	}
	if st = m.Stats(); st.ANN.Searches == 0 {
		t.Errorf("graph search not counted: %+v", st.ANN)
	}

	if _, err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.ANN.Nodes != 56 {
		t.Fatalf("post-compaction graph covers %d nodes, want 56", st.ANN.Nodes)
	}
}

// TestANNMatchesExactOnSubstrate pins answer quality through the full
// manager: on this corpus size the hybrid must agree with the exact
// reference for every query's top hit.
func TestANNMatchesExactOnSubstrate(t *testing.T) {
	m := newTestManager(t, 120, annConfig(32))
	ingestN(t, m, 5, "mix")
	snap := m.Current()
	for _, q := range []string{"Entity 17 related to", "Ingested mix 2 discovered", "Entity 99"} {
		approx := search(snap.Index, q, 5)
		exact := snap.Index.(*vecstore.Hybrid).SearchExact(q, 5)
		if len(approx) == 0 || len(exact) == 0 {
			t.Fatalf("%q: empty results (%d approx, %d exact)", q, len(approx), len(exact))
		}
		if approx[0].Triple.Key() != exact[0].Triple.Key() {
			t.Errorf("%q top hit: approx %v, exact %v", q, approx[0].Triple, exact[0].Triple)
		}
	}
}

// TestANNCheckpointReloadsGraph: a durable ANN manager persists the
// graph beside its checkpoint's triples and recovery reloads it — no
// rebuild — with the epoch intact and the same answers.
func TestANNCheckpointReloadsGraph(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.ANN = ANNConfig{Enabled: true}
	m1 := recoverTestManager(t, 40, cfg)
	ingestN(t, m1, 6, "crash")
	if _, err := m1.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	preEpoch := m1.Epoch()
	// No Close: kill -9.

	// The checkpoint on disk must carry the graph (reload, not rebuild).
	cp, _, _ := loadNewestCheckpoint(m1.dir, embed.NewEncoder(), cfg.ShardSize)
	if cp == nil || cp.ann == nil || cp.ann.Len() != 46 {
		t.Fatalf("checkpoint graph missing or wrong size: %+v", cp)
	}

	m2 := recoverTestManager(t, 40, cfg)
	defer m2.Close()
	if got := m2.Epoch(); got < preEpoch {
		t.Fatalf("epoch regressed across restart: %d -> %d", preEpoch, got)
	}
	st := m2.Stats()
	if st.ANN == nil || st.ANN.Nodes != 46 {
		t.Fatalf("recovered ANN stats = %+v, want 46-node graph", st.ANN)
	}
	assertSameSubstrate(t, m1, m2)
}

// TestANNEfSearchIsSearchTimeOnly: the serving beam is Config.ANN.EfSearch
// and nothing else. A publish must not write it into the graph that older
// snapshots and a running checkpoint share — ingest, Stats and Checkpoint
// overlap here, and under the race detector such a write fails the test —
// and a checkpoint must not carry it to a restart that does not set it.
func TestANNEfSearchIsSearchTimeOnly(t *testing.T) {
	ctx := context.Background()
	cfg := durableConfig(t, t.TempDir())
	cfg.ANN = ANNConfig{Enabled: true, EfSearch: 40}
	m1 := recoverTestManager(t, 40, cfg)
	done := make(chan struct{})
	var wg sync.WaitGroup
	// until runs step over and over while the ingests below publish.
	until := func(step func() (ok bool)) {
		defer wg.Done()
		for step() {
			select {
			case <-done:
				return
			default:
			}
		}
	}
	wg.Add(2)
	go until(func() bool {
		st := m1.Stats()
		if st.ANN == nil || st.ANN.EfSearch != 40 {
			t.Errorf("ANN stats = %+v, want the configured beam of 40", st.ANN)
			return false
		}
		return true
	})
	go until(func() bool {
		if _, err := m1.Checkpoint(ctx); err != nil && !errors.Is(err, ErrCheckpointing) {
			t.Errorf("checkpoint: %v", err)
			return false
		}
		return true
	})
	ingestN(t, m1, 20, "beam")
	close(done)
	wg.Wait()
	if _, err := m1.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.ANN.EfSearch = 0
	m2 := recoverTestManager(t, 40, cfg)
	defer m2.Close()
	if st := m2.Stats(); st.ANN == nil || st.ANN.Nodes != 40 || st.ANN.EfSearch != vecstore.DefaultHNSWEfSearch {
		t.Fatalf("restart without a beam: ANN stats = %+v, want the reloaded 40-node graph at the default beam %d", st.ANN, vecstore.DefaultHNSWEfSearch)
	}
}

// TestANNRecoveryPrefixCoverage: a checkpoint taken before compaction
// flattens base + delta, so the persisted graph covers only the former
// base. Recovery must serve that split — graph over the
// prefix, exact over the tail — and the next compaction restores full
// coverage.
func TestANNRecoveryPrefixCoverage(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.ANN = ANNConfig{Enabled: true}
	m1 := recoverTestManager(t, 40, cfg)
	ingestN(t, m1, 8, "tail")
	if _, err := m1.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	// No Close: kill -9.

	m2 := recoverTestManager(t, 40, cfg)
	defer m2.Close()
	snap := m2.Current()
	if snap.Store.Len() != 48 {
		t.Fatalf("recovered %d triples, want 48", snap.Store.Len())
	}
	st := m2.Stats()
	if st.ANN == nil || st.ANN.Nodes != 40 {
		t.Fatalf("recovered ANN covers %d nodes, want the 40-triple former base: %+v", st.ANN.Nodes, st.ANN)
	}
	// The uncovered tail still answers exactly.
	hits := search(snap.Index, "Ingested tail 5 discovered in", 3)
	if len(hits) == 0 || hits[0].Triple.Subject != "Ingested tail 5" {
		t.Fatalf("tail triple not served after recovery: %v", hits)
	}
	// New ingest + compaction folds everything back under the graph.
	ingestN(t, m2, 1, "more")
	if _, err := m2.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := m2.Stats(); st.ANN.Nodes != 49 {
		t.Fatalf("post-compaction graph covers %d nodes, want 49", st.ANN.Nodes)
	}
}

// TestANNDisabledIgnoresPersistedGraph: restarting with ANN off over an
// ANN-bearing checkpoint must serve pure exact scans — the graph file
// is dropped, not an error.
func TestANNDisabledIgnoresPersistedGraph(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.ANN = ANNConfig{Enabled: true}
	m1 := recoverTestManager(t, 30, cfg)
	ingestN(t, m1, 2, "off")
	if _, err := m1.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	// No Close: kill -9.

	plain := durableConfig(t, dir)
	m2 := recoverTestManager(t, 30, plain)
	defer m2.Close()
	if st := m2.Stats(); st.ANN != nil {
		t.Fatalf("ANN-off manager reports ANN stats: %+v", st.ANN)
	}
	if got := m2.Current().Store.Len(); got != 32 {
		t.Fatalf("recovered %d triples, want 32", got)
	}
}
