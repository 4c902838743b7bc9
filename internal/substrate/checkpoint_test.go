package substrate

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/vecstore"
)

// checkpointFiles lists a checkpoint directory's file names, sorted.
func checkpointFiles(t *testing.T, path string) []string {
	t.Helper()
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCheckpointHoldsEachFactOnce: a checkpoint directory is the manifest
// and the triples, plus the graph only when there is one, and the manifest
// records the SHA-256 of each.
func TestCheckpointHoldsEachFactOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		ann  bool
		want []string
	}{
		{"exact", false, []string{manifestName, triplesName}},
		{"ann", true, []string{manifestName, graphName, triplesName}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := durableConfig(t, t.TempDir())
			cfg.ANN.Enabled = tc.ann
			m := recoverTestManager(t, 20, cfg)
			defer m.Close()
			ingestN(t, m, 3, "once")
			info, err := m.Checkpoint(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := checkpointFiles(t, info.Path); !slices.Equal(got, tc.want) {
				t.Fatalf("checkpoint holds %v, want %v", got, tc.want)
			}
			mb, err := os.ReadFile(filepath.Join(info.Path, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			var mf manifest
			if err := json.Unmarshal(mb, &mf); err != nil {
				t.Fatal(err)
			}
			if mf.Format != 2 || mf.Triples != 23 || (mf.ANNNodes != 0) != tc.ann {
				t.Fatalf("manifest = %+v", mf)
			}
			hashes := map[string]string{triplesName: mf.TriplesSHA256}
			if tc.ann {
				hashes[graphName] = mf.GraphSHA256
			} else if mf.GraphSHA256 != "" {
				t.Errorf("graph hash %q without a graph", mf.GraphSHA256)
			}
			for name, want := range hashes {
				b, err := os.ReadFile(filepath.Join(info.Path, name))
				if err != nil {
					t.Fatal(err)
				}
				if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
					t.Errorf("%s: manifest hash %q is not the file's", name, want)
				}
			}
		})
	}
}

// TestANNMidGenerationCheckpoint: a format-2 -ann checkpoint taken with a
// compacted base and a live delta persists the graph over the base only;
// recovery binds the graph to the arena's first ann_nodes rows and serves
// a Hybrid whose graph covers exactly those and whose answers equal the
// exact scan's.
func TestANNMidGenerationCheckpoint(t *testing.T) {
	cfg := durableConfig(t, t.TempDir())
	cfg.ANN.Enabled = true
	m1 := recoverTestManager(t, 40, cfg)
	ingestN(t, m1, 6, "crash")
	if _, err := m1.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	ingestN(t, m1, 5, "delta")
	info, err := m1.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ingestN(t, m1, 2, "tail")
	// No Close: kill -9.

	m2 := recoverTestManager(t, 40, cfg)
	defer m2.Close()
	if rec := m2.Recovery(); rec.CheckpointEpoch != info.Epoch || rec.CheckpointTriples != 51 || rec.ReplayedRecords != 2 || rec.SkippedCheckpoints != 0 {
		t.Fatalf("recovery = %+v, want checkpoint %d (51 triples) + 2 records", rec, info.Epoch)
	}
	if st := m2.Stats(); st.ANN == nil || st.ANN.Nodes != 46 {
		t.Fatalf("recovered graph covers %+v, want the 46-triple compacted base", st.ANN)
	}
	assertSameSubstrate(t, m1, m2)
	hy := m2.Current().Index.(*vecstore.Hybrid)
	for _, q := range []string{"Ingested crash 3 discovered", "Ingested delta 4 discovered in", "Ingested tail 1", "Entity 5 related"} {
		got, want := search(hy, q, 5), hy.SearchExact(q, 5)
		if len(got) != len(want) {
			t.Fatalf("%q: %d hits, exact scan has %d", q, len(got), len(want))
		}
		for i := range want {
			if !got[i].Triple.Equal(want[i].Triple) || got[i].Score != want[i].Score {
				t.Errorf("%q hit %d: %v@%g, exact scan %v@%g", q, i, got[i].Triple, got[i].Score, want[i].Triple, want[i].Score)
			}
		}
	}
	if st := m2.Stats(); st.ANN.Searches == 0 || st.ANN.Fallbacks != 0 {
		t.Errorf("recovered hybrid did not answer through the graph: %+v", st.ANN)
	}
}

// TestRecoverFormat1Checkpoint loads data directories written by the last
// commit that produced format-1 checkpoints (ShardSize 16, fsync=always,
// killed without Close; see each case for the sequence). Such a directory
// loads from its triples.nt alone — index.bin, vectors and v2 graph record
// included, is ignored — to the same epoch, triples and search results as
// a manager taken through the same sequence today, and under -ann the
// graph is rebuilt at boot.
func TestRecoverFormat1Checkpoint(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		ann     bool
		// replay re-runs the fixture's writes and returns the checkpoint
		// epoch they reach.
		replay func(t *testing.T, m *Manager) uint64
	}{
		{"format1-exact", false, func(t *testing.T, m *Manager) uint64 {
			ingestN(t, m, 3, "crash")
			info, err := m.Checkpoint(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ingestN(t, m, 2, "tail")
			return info.Epoch
		}},
		{"format1-ann", true, func(t *testing.T, m *Manager) uint64 {
			ingestN(t, m, 4, "crash")
			snap, err := m.Compact(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ingestN(t, m, 2, "tail")
			return snap.Epoch
		}},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", tc.fixture))); err != nil {
				t.Fatal(err)
			}
			cfg := durableConfig(t, dir)
			cfg.ANN.Enabled = tc.ann
			got := recoverTestManager(t, 6, cfg)
			defer got.Close()

			refCfg := durableConfig(t, t.TempDir())
			refCfg.ANN.Enabled = tc.ann
			ref := recoverTestManager(t, 6, refCfg)
			defer ref.Close()
			cpEpoch := tc.replay(t, ref)

			rec := got.Recovery()
			if rec.CheckpointEpoch != cpEpoch || rec.ReplayedRecords != 2 || rec.SkippedCheckpoints != 0 {
				t.Fatalf("recovery = %+v, want checkpoint epoch %d and the 2-record tail", rec, cpEpoch)
			}
			// The reference never restarted; a primary's recovery publishes once.
			if got.Epoch() != ref.Epoch()+1 {
				t.Fatalf("recovered at epoch %d, want %d", got.Epoch(), ref.Epoch()+1)
			}
			assertSameSubstrate(t, ref, got)
			if st := got.Stats(); tc.ann && (st.ANN == nil || st.ANN.Nodes != rec.CheckpointTriples) {
				t.Fatalf("graph not rebuilt over the %d checkpointed triples: %+v", rec.CheckpointTriples, st.ANN)
			}
		})
	}
}
