package substrate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/kg"
)

// durableConfig builds a Config persisting under a fresh temp dir with
// per-append fsyncs (tests simulate kill -9 by abandoning the manager
// without Close, so every acknowledged ingest must already be on disk).
func durableConfig(t *testing.T, dir string) Config {
	t.Helper()
	return Config{
		ShardSize:  16,
		Durability: Durability{Dir: dir, Fsync: SyncAlways},
	}
}

// recoverTestManager is newTestManager for the durable constructor.
func recoverTestManager(t *testing.T, n int, cfg Config) *Manager {
	t.Helper()
	m, err := Recover(embed.NewEncoder(), baseStore(n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ingestN ingests n distinct facts about distinct subjects and returns
// the triples.
func ingestN(t *testing.T, m *Manager, n int, tag string) []kg.Triple {
	t.Helper()
	triples := make([]kg.Triple, n)
	for i := range triples {
		triples[i] = kg.Triple{
			Subject:  fmt.Sprintf("Ingested %s %d", tag, i),
			Relation: "discovered in",
			Object:   fmt.Sprintf("Expedition %s-%d", tag, i),
		}
		res, err := m.Ingest(triples[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if res.Added != 1 {
			t.Fatalf("ingest %d: added %d, want 1", i, res.Added)
		}
	}
	return triples
}

// assertSameSubstrate checks that two managers hold the same triples and
// return the same search results — "the same answers" at the substrate
// level, where every QA method sources its evidence.
func assertSameSubstrate(t *testing.T, before, after *Manager) {
	t.Helper()
	a, b := before.Current(), after.Current()
	if a.Store.Len() != b.Store.Len() {
		t.Fatalf("triple count changed across recovery: %d -> %d", a.Store.Len(), b.Store.Len())
	}
	for _, tr := range a.Store.All() {
		if !b.Store.Contains(tr) {
			t.Fatalf("recovered substrate lost %v", tr)
		}
	}
	for _, q := range []string{"Ingested crash 3 discovered", "Entity 5 related", "Expedition crash-0"} {
		ha, hb := search(a.Index, q, 5), search(b.Index, q, 5)
		if len(ha) != len(hb) {
			t.Fatalf("query %q: %d hits before, %d after", q, len(ha), len(hb))
		}
		for i := range ha {
			if !ha[i].Triple.Equal(hb[i].Triple) || ha[i].Score != hb[i].Score {
				t.Fatalf("query %q hit %d diverged: %v/%v vs %v/%v",
					q, i, ha[i].Triple, ha[i].Score, hb[i].Triple, hb[i].Score)
			}
		}
	}
}

// TestRecoverAfterCrash is the durability acceptance criterion: kill -9
// after N ingests (simulated by abandoning the manager without Close),
// restart, and every ingested triple is back with the same search
// results and a non-regressed epoch.
func TestRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	m1 := recoverTestManager(t, 40, cfg)
	ingestN(t, m1, 8, "crash")
	preEpoch := m1.Epoch()
	if got := m1.Current().DeltaTriples; got != 8 {
		t.Fatalf("delta = %d, want 8", got)
	}
	// No Close: the file descriptors just vanish, as in kill -9.

	m2 := recoverTestManager(t, 40, cfg)
	defer m2.Close()
	if got := m2.Epoch(); got < preEpoch {
		t.Fatalf("epoch regressed across restart: %d -> %d", preEpoch, got)
	}
	if got := m2.Current().Store.Len(); got != 48 {
		t.Fatalf("recovered %d triples, want 48", got)
	}
	assertSameSubstrate(t, m1, m2)
	rec := m2.Recovery()
	if rec.ReplayedRecords != 8 || rec.ReplayedTriples != 8 {
		t.Errorf("recovery = %+v, want 8 records / 8 triples replayed", rec)
	}
	if rec.TornRecordsDropped != 0 {
		t.Errorf("unexpected torn records: %+v", rec)
	}
}

// TestRecoverFromCheckpointPlusTail covers the snapshot-plus-log shape:
// a checkpoint mid-stream, more ingests after it, then a crash — boot
// must load the checkpoint and replay only the tail.
func TestRecoverFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	m1 := recoverTestManager(t, 30, cfg)
	ingestN(t, m1, 5, "pre")
	info, err := m1.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Triples != 35 {
		t.Fatalf("checkpoint captured %d triples, want 35", info.Triples)
	}
	ingestN(t, m1, 3, "post")
	preEpoch := m1.Epoch()

	m2 := recoverTestManager(t, 30, cfg)
	defer m2.Close()
	rec := m2.Recovery()
	if rec.CheckpointEpoch != info.Epoch || rec.CheckpointTriples != 35 {
		t.Fatalf("recovery loaded checkpoint %d (%d triples), want %d (35)", rec.CheckpointEpoch, rec.CheckpointTriples, info.Epoch)
	}
	if rec.ReplayedRecords != 3 {
		t.Fatalf("replayed %d records, want only the 3-record tail", rec.ReplayedRecords)
	}
	if got := m2.Epoch(); got < preEpoch {
		t.Fatalf("epoch regressed: %d -> %d", preEpoch, got)
	}
	if got := m2.Current().Store.Len(); got != 38 {
		t.Fatalf("recovered %d triples, want 38", got)
	}
	assertSameSubstrate(t, m1, m2)
}

// TestCheckpointTruncatesWAL: after a checkpoint the log holds no
// records at or below the checkpointed epoch.
func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	m := recoverTestManager(t, 10, cfg)
	defer m.Close()
	ingestN(t, m, 4, "trunc")
	walPath := filepath.Join(dir, "wikidata", walName)
	recs, _, _, err := replayWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Boot logs a zero-triple epoch marker, then one record per ingest.
	if len(recs) != 5 {
		t.Fatalf("wal holds %d records before checkpoint, want 5", len(recs))
	}
	info, err := m.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err = replayWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Epoch <= info.Epoch {
			t.Fatalf("wal still holds record at epoch %d <= checkpoint %d", r.Epoch, info.Epoch)
		}
	}
}

// TestRecoverDropsTornTail corrupts the final WAL record — a torn write
// — and expects recovery to keep everything before it, count the drop,
// and keep the file appendable.
func TestRecoverDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	m1 := recoverTestManager(t, 20, cfg)
	ingestN(t, m1, 5, "torn")

	walPath := filepath.Join(dir, "wikidata", walName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-way through the final record to simulate a torn write.
	if err := os.WriteFile(walPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := recoverTestManager(t, 20, cfg)
	rec := m2.Recovery()
	if rec.TornRecordsDropped != 1 {
		t.Fatalf("torn drops = %d, want 1", rec.TornRecordsDropped)
	}
	if rec.ReplayedRecords != 4 {
		t.Fatalf("replayed %d records, want the 4 intact ones", rec.ReplayedRecords)
	}
	if got := m2.Current().Store.Len(); got != 24 {
		t.Fatalf("recovered %d triples, want 24", got)
	}
	// The truncated log must accept appends again: ingest, crash, recover.
	if _, err := m2.Ingest([]kg.Triple{{Subject: "Post-torn", Relation: "status", Object: "alive"}}); err != nil {
		t.Fatal(err)
	}
	m3 := recoverTestManager(t, 20, cfg)
	defer m3.Close()
	if !m3.Current().Store.Contains(kg.Triple{Subject: "Post-torn", Relation: "status", Object: "alive"}) {
		t.Fatal("append after torn-tail truncation did not survive the next recovery")
	}
}

// TestRecoverSkipsCorruptCheckpoint: a corrupted newest checkpoint falls
// back to an older intact one without losing WAL-replayable state. The
// manifest's content hashes make a file that still parses — a flipped
// byte inside an object string would be served as a different fact at
// the same epoch — as corrupt as one that does not.
func TestRecoverSkipsCorruptCheckpoint(t *testing.T) {
	rewrite := func(name string, edit func([]byte) []byte) func(*testing.T, string) {
		return func(t *testing.T, cpDir string) {
			path := filepath.Join(cpDir, name)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			edited := edit(bytes.Clone(b))
			if bytes.Equal(edited, b) {
				t.Fatalf("edit left %s unchanged", name)
			}
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		ann     bool
		corrupt func(t *testing.T, cpDir string)
	}{
		{"garbage", false, rewrite(triplesName, func([]byte) []byte { return []byte("garbage") })},
		{"flipped byte in an object", false, rewrite(triplesName, func(b []byte) []byte {
			return bytes.Replace(b, []byte("<Expedition cp1-1>"), []byte("<Xxpedition cp1-1>"), 1)
		})},
		{"truncated graph", true, rewrite(graphName, func(b []byte) []byte { return b[:len(b)-5] })},
		{"ann_nodes mismatch", true, rewrite(manifestName, func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"ann_nodes":10`), []byte(`"ann_nodes":12`), 1)
		})},
	} {
		t.Run(tc.name, func(t *testing.T) { testRecoverSkipsCorruptCheckpoint(t, tc.ann, tc.corrupt) })
	}
}

func testRecoverSkipsCorruptCheckpoint(t *testing.T, ann bool, corrupt func(t *testing.T, cpDir string)) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.ANN.Enabled = ann
	m1 := recoverTestManager(t, 10, cfg)
	ingestN(t, m1, 2, "cp1")
	if _, err := m1.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	ingestN(t, m1, 2, "cp2")
	info2, err := m1.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint. Pruning removed the older
	// checkpoint, so recovery must fall back to the seed + WAL... but the
	// WAL was truncated through info2.Epoch. To keep this recoverable we
	// corrupt AND restore a full WAL, as a crash between "checkpoint
	// written" and "WAL truncated" would leave it.
	corrupt(t, info2.Path)
	walPath := filepath.Join(dir, "wikidata", walName)
	var buf bytes.Buffer
	buf.Write(walMagic[:])
	for i, tr := range []kg.Triple{
		{Subject: "Ingested cp1 0", Relation: "discovered in", Object: "Expedition cp1-0"},
		{Subject: "Ingested cp1 1", Relation: "discovered in", Object: "Expedition cp1-1"},
		{Subject: "Ingested cp2 0", Relation: "discovered in", Object: "Expedition cp2-0"},
		{Subject: "Ingested cp2 1", Relation: "discovered in", Object: "Expedition cp2-1"},
	} {
		buf.Write(AppendFrame(nil, encodeWALPayload(uint64(i+2), []kg.Triple{tr})))
	}
	if err := os.WriteFile(walPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := recoverTestManager(t, 10, cfg)
	defer m2.Close()
	rec := m2.Recovery()
	if rec.SkippedCheckpoints == 0 {
		t.Fatal("corrupt checkpoint was not skipped")
	}
	if got := m2.Current().Store.Len(); got != 14 {
		t.Fatalf("recovered %d triples, want 14", got)
	}
	if !m2.Current().Store.Contains(kg.Triple{Subject: "Ingested cp1 1", Relation: "discovered in", Object: "Expedition cp1-1"}) {
		t.Fatal("recovered substrate does not hold the fact as it was ingested")
	}
	if m2.Epoch() < info2.Epoch {
		t.Fatalf("epoch regressed past corrupt checkpoint: %d < %d", m2.Epoch(), info2.Epoch)
	}
}

// TestRecoverRefusesBrokenChain is the recovery-side chain rule: from the
// loaded base every replayed record extends the chain by exactly one
// epoch, and the chain reaches the highest epoch the directory names.
// Every row starts from the same directory — 10 seed triples, 3 ingests,
// a checkpoint at epoch 4 that truncated the log behind it, 3 more
// ingests (16 triples at epoch 7) — and damages it one way.
func TestRecoverRefusesBrokenChain(t *testing.T) {
	flip := func(t *testing.T, cpDir string) {
		path := filepath.Join(cpDir, triplesName)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeWAL := func(t *testing.T, walPath string, recs []WALRecord) {
		buf := bytes.Clone(walMagic[:])
		for _, rec := range recs {
			buf = AppendFrame(buf, encodeWALPayload(rec.Epoch, rec.Triples))
		}
		if err := os.WriteFile(walPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		// damage edits the directory: head holds the records the
		// checkpoint truncated away, tail the ones logged after it.
		damage func(t *testing.T, cpDir, walPath string, head, tail []WALRecord)
		// refusal is the expected ChainGapError, less Dir, Source and the
		// Skipped reasons; nil means recovery succeeds with the counts below.
		refusal                        *ChainGapError
		triples, skipped, torn, replay int
		epoch                          uint64
	}{
		{
			// Three acknowledged, checkpointed facts would be gone at a
			// later epoch than any peer that still holds them.
			name: "only checkpoint corrupt, log truncated behind it",
			damage: func(t *testing.T, cpDir, _ string, _, _ []WALRecord) {
				flip(t, cpDir)
			},
			refusal: &ChainGapError{FromSeed: true, BaseEpoch: 1, MissingEpoch: 2, NamedEpoch: 7},
			skipped: 1,
		},
		{
			// The crash window between "checkpoint written" and "log
			// truncated": the full log bridges the seed to the head.
			name: "only checkpoint corrupt, log not yet truncated",
			damage: func(t *testing.T, cpDir, walPath string, head, tail []WALRecord) {
				flip(t, cpDir)
				writeWAL(t, walPath, append(head, tail...))
			},
			triples: 16, skipped: 1, replay: 6, epoch: 8,
		},
		{
			name: "record missing from the middle of the tail",
			damage: func(t *testing.T, _, walPath string, _, tail []WALRecord) {
				writeWAL(t, walPath, []WALRecord{tail[0], tail[2]})
			},
			refusal: &ChainGapError{BaseEpoch: 4, MissingEpoch: 6, NamedEpoch: 7},
		},
		{
			name: "torn final record",
			damage: func(t *testing.T, _, walPath string, _, _ []WALRecord) {
				raw, err := os.ReadFile(walPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(walPath, raw[:len(raw)-7], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			triples: 15, torn: 1, replay: 2, epoch: 7,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(t, dir)
			walPath := filepath.Join(dir, "wikidata", walName)
			m1 := recoverTestManager(t, 10, cfg)
			ingestN(t, m1, 3, "kept")
			head, _, _, err := replayWAL(walPath)
			if err != nil {
				t.Fatal(err)
			}
			info, err := m1.Checkpoint(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ingestN(t, m1, 3, "tail")
			if err := m1.Close(); err != nil {
				t.Fatal(err)
			}
			tail, _, _, err := replayWAL(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if info.Epoch != 4 || len(head) != 4 || len(tail) != 3 || tail[2].Epoch != 7 {
				t.Fatalf("fixture drifted: checkpoint at %d, %d records before it, tail %+v", info.Epoch, len(head), tail)
			}
			tc.damage(t, info.Path, walPath, head, tail)

			m2, err := Recover(embed.NewEncoder(), baseStore(10), cfg)
			if tc.refusal != nil {
				var gap *ChainGapError
				if !errors.As(err, &gap) {
					t.Fatalf("Recover = %v, want a ChainGapError", err)
				}
				if len(gap.Skipped) != tc.skipped || !strings.Contains(gap.Error(), gap.Dir) || gap.Dir != filepath.Dir(walPath) {
					t.Errorf("refusal %q names %d skipped checkpoints, want %d and the directory", gap, len(gap.Skipped), tc.skipped)
				}
				got := *gap
				got.Dir, got.Source, got.Skipped = "", 0, nil
				if want := *tc.refusal; !reflect.DeepEqual(got, want) {
					t.Errorf("refusal = %+v, want %+v", got, want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			rec := m2.Recovery()
			if got := m2.Current().Store.Len(); got != tc.triples {
				t.Errorf("recovered %d triples, want %d", got, tc.triples)
			}
			if rec.SkippedCheckpoints != tc.skipped || rec.TornRecordsDropped != tc.torn || rec.ReplayedRecords != tc.replay {
				t.Errorf("recovery = %+v, want %d skipped, %d torn, %d replayed", rec, tc.skipped, tc.torn, tc.replay)
			}
			if m2.Epoch() != tc.epoch {
				t.Errorf("resumed at epoch %d, want %d", m2.Epoch(), tc.epoch)
			}
		})
	}
}

// TestCompactKeepsEpochAcrossRestart: compaction bumps the epoch and
// writes a checkpoint; a crash right after must not regress the epoch.
func TestCompactKeepsEpochAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	m1 := recoverTestManager(t, 15, cfg)
	ingestN(t, m1, 4, "compact")
	if _, err := m1.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	preEpoch := m1.Epoch()
	if got := m1.Current().DeltaTriples; got != 0 {
		t.Fatalf("delta after compaction = %d, want 0", got)
	}

	m2 := recoverTestManager(t, 15, cfg)
	defer m2.Close()
	if got := m2.Epoch(); got < preEpoch {
		t.Fatalf("epoch regressed after compaction restart: %d -> %d", preEpoch, got)
	}
	if got := m2.Current().Store.Len(); got != 19 {
		t.Fatalf("recovered %d triples, want 19", got)
	}
	if m2.Recovery().CheckpointTriples != 19 {
		t.Fatalf("compaction did not leave a checkpoint: %+v", m2.Recovery())
	}
}

// TestIngestIdempotentAcrossRestart: re-ingesting recovered facts
// reports them as duplicates instead of growing the substrate.
// logLines forwards the log lines containing want to a channel.
type logLines struct {
	want  string
	lines chan string
}

func (l logLines) Write(p []byte) (int, error) {
	if strings.Contains(string(p), l.want) {
		select {
		case l.lines <- string(p):
		default:
		}
	}
	return len(p), nil
}

// TestAutoCompactionFailureIsLogged: the threshold-triggered compaction
// runs in the background with nobody to return its error to, and it can
// fail — here on its WAL epoch marker, the log having broken after the
// ingests that filled the delta. The failure must reach the log.
func TestAutoCompactionFailureIsLogged(t *testing.T) {
	m := recoverTestManager(t, 10, durableConfig(t, t.TempDir()))
	defer m.Close()
	ingestN(t, m, 2, "delta")

	sink := logLines{want: "auto-compaction", lines: make(chan string, 1)}
	log.SetOutput(sink)
	defer log.SetOutput(os.Stderr)
	m.wal.mu.Lock()
	m.wal.f.Close()
	m.wal.f = nil
	m.wal.mu.Unlock()
	m.mu.Lock()
	m.cfg.CompactThreshold = 2 // what the two ingests would have crossed
	m.autoCompactLocked()
	m.mu.Unlock()
	select {
	case line := <-sink.lines:
		if !strings.Contains(line, "compaction epoch marker") {
			t.Errorf("logged %q, want the failed epoch marker append", line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the failed auto-compaction logged nothing")
	}
	if st := m.Stats(); st.Compactions != 0 {
		t.Errorf("a compaction whose marker was refused published: %+v", st)
	}
}

func TestIngestIdempotentAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	m1 := recoverTestManager(t, 10, cfg)
	triples := ingestN(t, m1, 3, "idem")

	m2 := recoverTestManager(t, 10, cfg)
	defer m2.Close()
	res, err := m2.Ingest(triples)
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 0 || res.Skipped != 3 {
		t.Fatalf("re-ingest after recovery: added=%d skipped=%d, want 0/3", res.Added, res.Skipped)
	}
}

// TestIngestRejectsReservedCharacters: fields that would corrupt the
// persisted NT form are refused up front.
func TestIngestRejectsReservedCharacters(t *testing.T) {
	m := newTestManager(t, 5, Config{})
	defer m.Close()
	for _, bad := range []kg.Triple{
		{Subject: "a<b", Relation: "r", Object: "o"},
		{Subject: "a", Relation: "r>s", Object: "o"},
		{Subject: "a", Relation: "r", Object: "o\np"},
		// Edge whitespace: a checkpoint would load the fields trimmed.
		{Subject: "a ", Relation: "r", Object: "o"},
		{Subject: "a", Relation: "\tr", Object: "o"},
		// Over the per-triple size cap: would make the checkpoint NT file
		// unreadable (kg.ReadNT's 1 MiB line buffer).
		{Subject: "a", Relation: "r", Object: strings.Repeat("x", maxTripleBytes)},
	} {
		if _, err := m.Ingest([]kg.Triple{bad}); err == nil {
			t.Errorf("triple %q accepted", bad)
		}
	}
}

// TestOrdTextInFieldSurvivesRestart: a field may hold the text of the NT
// form's "@ord=" suffix; the WAL tail and a checkpoint both load it back
// as the field it was.
func TestOrdTextInFieldSurvivesRestart(t *testing.T) {
	cfg := durableConfig(t, t.TempDir())
	m1 := recoverTestManager(t, 5, cfg)
	want := []kg.Triple{kg.NewTriple("Lot 1", "price", "40 @ord=5"), kg.NewTriple("Lot 2", "price", "7 @ord=2")}
	if _, err := m1.Ingest(want[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Ingest(want[1:]); err != nil {
		t.Fatal(err)
	}
	m2 := recoverTestManager(t, 5, cfg)
	defer m2.Close()
	for _, tr := range want {
		if !m2.Current().Store.Contains(tr) {
			t.Errorf("%v did not survive the restart", tr)
		}
	}
}

// TestTimeVaryingOrdsSurviveRestart: ord assignment (newest-wins for
// ord-0 ingests) must replay to the same ordinals.
func TestTimeVaryingOrdsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	m1 := recoverTestManager(t, 5, cfg)
	// Entity 0 already has a "related to" fact; two more ord-0 ingests
	// must stack past it — including two values inside one batch.
	if _, err := m1.Ingest([]kg.Triple{
		{Subject: "Entity 0", Relation: "related to", Object: "Update A"},
		{Subject: "Entity 0", Relation: "related to", Object: "Update B"},
	}); err != nil {
		t.Fatal(err)
	}
	want := m1.Current().Store.SubjectRelation("Entity 0", "related to")

	m2 := recoverTestManager(t, 5, cfg)
	defer m2.Close()
	got := m2.Current().Store.SubjectRelation("Entity 0", "related to")
	if len(got) != len(want) {
		t.Fatalf("series length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) || got[i].Ord != want[i].Ord {
			t.Errorf("series[%d] = %v@%d, want %v@%d", i, got[i], got[i].Ord, want[i], want[i].Ord)
		}
	}
	if last := got[len(got)-1]; last.Object != "Update B" {
		t.Errorf("newest value after recovery = %q, want Update B", last.Object)
	}
}

// TestCheckpointRequiresDurability: memory-only managers refuse.
func TestCheckpointRequiresDurability(t *testing.T) {
	m := newTestManager(t, 5, Config{})
	defer m.Close()
	if _, err := m.Checkpoint(context.Background()); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("err = %v, want ErrNotDurable", err)
	}
}

// TestRecoveryReplaysIntoOneArena: a long WAL tail of tiny batches boots
// into one arena, whose blocks are the shard size's cut of every row —
// however many records the rows were replayed from — and which searches as
// the manager that logged them did.
func TestRecoveryReplaysIntoOneArena(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir) // ShardSize 16
	m1 := recoverTestManager(t, 30, cfg)
	ingestN(t, m1, 40, "seg") // 40 single-triple WAL records

	m2 := recoverTestManager(t, 30, cfg)
	defer m2.Close()
	if got := m2.Current().Store.Len(); got != 70 {
		t.Fatalf("recovered %d triples, want 70", got)
	}
	// ceil(70/16) = 5 blocks, as on the manager that logged the records.
	if got, want := m2.Stats().Shards, m1.Stats().Shards; got != 5 || want != 5 {
		t.Fatalf("boot snapshot has %d blocks, the logging manager %d, want 5", got, want)
	}
	assertSameSubstrate(t, m1, m2)
}

// TestDurableChurnThenRecover hammers a durable manager with concurrent
// ingests, checkpoints and compactions, then recovers: every
// acknowledged triple must come back and the epoch must not regress.
func TestDurableChurnThenRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	m1 := recoverTestManager(t, 30, cfg)

	const writers, perWriter = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, err := m1.Ingest([]kg.Triple{{
					Subject:  fmt.Sprintf("Churn %d-%d", w, i),
					Relation: "written by",
					Object:   fmt.Sprintf("writer %d", w),
				}})
				if err != nil {
					t.Errorf("ingest %d-%d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := m1.Checkpoint(context.Background()); err != nil && !errors.Is(err, ErrCheckpointing) {
				t.Errorf("checkpoint: %v", err)
			}
			if _, err := m1.Compact(context.Background()); err != nil && !errors.Is(err, ErrCompacting) {
				t.Errorf("compact: %v", err)
			}
		}
	}()
	wg.Wait()
	preEpoch := m1.Epoch()

	m2 := recoverTestManager(t, 30, cfg)
	defer m2.Close()
	if got := m2.Epoch(); got < preEpoch {
		t.Fatalf("epoch regressed: %d -> %d", preEpoch, got)
	}
	if got := m2.Current().Store.Len(); got != 30+writers*perWriter {
		t.Fatalf("recovered %d triples, want %d", got, 30+writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			tr := kg.Triple{
				Subject:  fmt.Sprintf("Churn %d-%d", w, i),
				Relation: "written by",
				Object:   fmt.Sprintf("writer %d", w),
			}
			if !m2.Current().Store.Contains(tr) {
				t.Fatalf("recovered substrate lost %v", tr)
			}
		}
	}
}

// TestWALRecordRoundTrip exercises the record codec directly, markers
// included.
func TestWALRecordRoundTrip(t *testing.T) {
	triples := []kg.Triple{
		{Subject: "S", Relation: "r", Object: "O"},
		{Subject: "S2", Relation: "r2", Object: "O2", Ord: 7},
	}
	rec, err := DecodeWALRecord(encodeWALPayload(42, triples))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 42 || len(rec.Triples) != 2 {
		t.Fatalf("decoded %+v", rec)
	}
	if rec.Triples[1].Ord != 7 {
		t.Errorf("ord lost: %+v", rec.Triples[1])
	}
	marker, err := DecodeWALRecord(encodeWALPayload(9, nil))
	if err != nil {
		t.Fatal(err)
	}
	if marker.Epoch != 9 || len(marker.Triples) != 0 {
		t.Fatalf("marker decoded as %+v", marker)
	}
	// Every truncation of a payload must fail decode, not panic.
	full := encodeWALPayload(42, triples)
	for i := 0; i < len(full); i++ {
		if _, err := DecodeWALRecord(full[:i]); err == nil {
			t.Fatalf("truncated payload of %d/%d bytes decoded", i, len(full))
		}
	}
}
