package repl

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/substrate"
)

// seedStore builds the deterministic seed both ends boot from — the
// same role bench environments play for the real binaries.
func seedStore(n int) *kg.Store {
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

const seedTriples = 20

func managerConfig(dir string, replica bool, compactThreshold int) substrate.Config {
	return substrate.Config{
		ShardSize:        16,
		Replica:          replica,
		CompactThreshold: compactThreshold,
		Durability:       substrate.Durability{Dir: dir, Fsync: substrate.SyncAlways},
	}
}

func newNodeManager(t *testing.T, dir string, replica bool, compactThreshold int) *substrate.Manager {
	t.Helper()
	m, err := substrate.Recover(embed.NewEncoder(), seedStore(seedTriples), managerConfig(dir, replica, compactThreshold))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serveSource exposes mgr's replication endpoints on a test server with
// a fast heartbeat.
func serveSource(t *testing.T, mgr *substrate.Manager) *httptest.Server {
	t.Helper()
	src := NewSource(map[string]Manager{"wikidata": mgr}, mgr.Replica())
	src.heartbeatEvery = 20 * time.Millisecond
	mux := http.NewServeMux()
	src.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func startApplier(t *testing.T, primaryURL string, mgr *substrate.Manager) (*Applier, context.CancelFunc) {
	t.Helper()
	a, err := NewApplier(ApplierConfig{
		Primary: primaryURL,
		Source:  "wikidata",
		Manager: mgr,
		Backoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return a, cancel
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// assertSameContent requires both managers to serve the same epoch and
// the IDENTICAL triple sequence — order included, because triple IDs
// (and with them retrieval tie-breaks and answer bytes) are positional.
func assertSameContent(t *testing.T, primary, replica *substrate.Manager) {
	t.Helper()
	ps, rs := primary.Current(), replica.Current()
	if ps.Epoch != rs.Epoch {
		t.Fatalf("epochs diverge: primary %d, replica %d", ps.Epoch, rs.Epoch)
	}
	pAll, rAll := ps.Store.All(), rs.Store.All()
	if len(pAll) != len(rAll) {
		t.Fatalf("triple counts diverge at epoch %d: primary %d, replica %d", ps.Epoch, len(pAll), len(rAll))
	}
	for i := range pAll {
		if pAll[i] != rAll[i] {
			t.Fatalf("triple %d diverges at epoch %d: primary %v, replica %v", i, ps.Epoch, pAll[i], rAll[i])
		}
	}
}

func ingestN(t *testing.T, m *substrate.Manager, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := m.Ingest([]kg.Triple{{
			Subject:  fmt.Sprintf("Ingested %s %d", tag, i),
			Relation: "discovered in",
			Object:   fmt.Sprintf("Expedition %s-%d", tag, i),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := newStreamWriter(&buf)
	if err := sw.writeMagic(); err != nil {
		t.Fatal(err)
	}
	rec := WALRecord{Epoch: 7, Triples: []kg.Triple{
		{Subject: "a", Relation: "b", Object: "c"},
		{Subject: "d", Relation: "e", Object: "f", Ord: 2},
	}}
	if err := sw.writeRecord(rec); err != nil {
		t.Fatal(err)
	}
	if err := sw.writeHeartbeat(42); err != nil {
		t.Fatal(err)
	}
	if err := sw.writeRecord(WALRecord{Epoch: 8}); err != nil { // epoch marker
		t.Fatal(err)
	}

	sr := newStreamReader(bytes.NewReader(buf.Bytes()))
	if err := sr.readMagic(); err != nil {
		t.Fatal(err)
	}
	fr, err := sr.next()
	if err != nil || fr.Kind != kindRecord {
		t.Fatalf("frame 1: %+v, %v", fr, err)
	}
	if fr.Record.Epoch != 7 || len(fr.Record.Triples) != 2 || fr.Record.Triples[1].Ord != 2 {
		t.Fatalf("record round-trip mangled: %+v", fr.Record)
	}
	fr, err = sr.next()
	if err != nil || fr.Kind != kindHeartbeat || fr.Head != 42 {
		t.Fatalf("frame 2: %+v, %v", fr, err)
	}
	fr, err = sr.next()
	if err != nil || fr.Record.Epoch != 8 || len(fr.Record.Triples) != 0 {
		t.Fatalf("frame 3: %+v, %v", fr, err)
	}
	if _, err := sr.next(); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

// TestWireGoldenBytes pins the stream's bytes — magic, then a kind byte
// before each substrate frame: primaries and replicas of different
// builds must keep understanding each other. The frames are a record, a
// heartbeat and an epoch marker.
func TestWireGoldenBytes(t *testing.T) {
	const golden = "5047414b52504c31" +
		"01" + "340000005be9c747" + "0700000000000000" + "02000000" +
		"0b000000" + "3c533e203c723e203c4f3e" +
		"15000000" + "3c53323e203c72323e203c4f323e20406f72643d33" +
		"02" + "08000000f7a1940d" + "2a00000000000000" +
		"01" + "0c00000091b0d97d" + "0800000000000000" + "00000000"
	var buf bytes.Buffer
	sw := newStreamWriter(&buf)
	_ = sw.writeMagic()
	_ = sw.writeRecord(WALRecord{Epoch: 7, Triples: []kg.Triple{
		{Subject: "S", Relation: "r", Object: "O"},
		{Subject: "S2", Relation: "r2", Object: "O2", Ord: 3},
	}})
	_ = sw.writeHeartbeat(42)
	_ = sw.writeRecord(WALRecord{Epoch: 8})
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("stream bytes changed:\n got %s\nwant %s", got, golden)
	}
	// A stream cut inside a frame — even right after the kind byte — is
	// not a clean close.
	for _, cut := range []int{len(streamMagic) + 1, len(streamMagic) + 5, buf.Len() - 1} {
		sr := newStreamReader(bytes.NewReader(buf.Bytes()[:cut]))
		if err := sr.readMagic(); err != nil {
			t.Fatal(err)
		}
		var err error
		for err == nil {
			_, err = sr.next()
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("stream cut at byte %d ended with %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestWireRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	sw := newStreamWriter(&buf)
	_ = sw.writeMagic()
	_ = sw.writeRecord(WALRecord{Epoch: 3, Triples: []kg.Triple{{Subject: "a", Relation: "b", Object: "c"}}})
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // flip a payload byte

	sr := newStreamReader(bytes.NewReader(raw))
	if err := sr.readMagic(); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.next(); err == nil {
		t.Fatal("corrupted frame passed its checksum")
	}
}

// TestStreamApply is the basic tentpole path: a replica streams the
// primary's ingests and converges to identical content at identical
// epochs.
func TestStreamApply(t *testing.T) {
	dir := t.TempDir()
	primary := newNodeManager(t, filepath.Join(dir, "p"), false, 0)
	defer primary.Close()
	srv := serveSource(t, primary)
	replica := newNodeManager(t, filepath.Join(dir, "r"), true, 0)
	defer replica.Close()

	a, _ := startApplier(t, srv.URL, replica)
	ingestN(t, primary, 5, "basic")
	waitFor(t, 5*time.Second, "replica catch-up", func() bool { return replica.Epoch() == primary.Epoch() })
	assertSameContent(t, primary, replica)

	st := a.Stats()
	if st.RecordsApplied != 5 {
		t.Fatalf("applied %d records, want 5", st.RecordsApplied)
	}
	if st.LagRecords != 0 {
		t.Fatalf("lag %d after catch-up, want 0", st.LagRecords)
	}
	if !st.Connected {
		t.Fatal("applier reports disconnected while streaming")
	}
}

// TestReplicaRejectsLocalIngest: the replica has exactly one writer —
// the shipped WAL.
func TestReplicaRejectsLocalIngest(t *testing.T) {
	replica := newNodeManager(t, t.TempDir(), true, 0)
	defer replica.Close()
	if _, err := replica.Ingest([]kg.Triple{{Subject: "a", Relation: "b", Object: "c"}}); err == nil {
		t.Fatal("local ingest on a replica succeeded")
	}
}

// TestApplierResumesByEpoch: an applier stopped mid-history and
// restarted resumes from exactly the local epoch — nothing re-applied,
// nothing skipped.
func TestApplierResumesByEpoch(t *testing.T) {
	dir := t.TempDir()
	primary := newNodeManager(t, filepath.Join(dir, "p"), false, 0)
	defer primary.Close()
	srv := serveSource(t, primary)
	replica := newNodeManager(t, filepath.Join(dir, "r"), true, 0)
	defer replica.Close()

	_, cancel := startApplier(t, srv.URL, replica)
	ingestN(t, primary, 4, "phase1")
	waitFor(t, 5*time.Second, "phase 1 catch-up", func() bool { return replica.Epoch() == primary.Epoch() })
	cancel() // replica goes dark

	ingestN(t, primary, 6, "phase2")
	a2, _ := startApplier(t, srv.URL, replica)
	waitFor(t, 5*time.Second, "phase 2 catch-up", func() bool { return replica.Epoch() == primary.Epoch() })
	assertSameContent(t, primary, replica)
	st := a2.Stats()
	if st.RecordsApplied != 6 {
		t.Fatalf("resumed applier applied %d records, want exactly the 6 missed", st.RecordsApplied)
	}
	if st.RecordsSkipped != 0 {
		t.Fatalf("resumed applier skipped %d records, want 0 (resume is by exact epoch)", st.RecordsSkipped)
	}
}

// TestBootstrapFromCheckpoint: when the primary has checkpointed past a
// joining replica's state, the WAL alone cannot bridge the gap — the
// stream must 410 and the pre-flight bootstrap must fetch the
// checkpoint, after which recovery + the stream tail converge.
func TestBootstrapFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	primary := newNodeManager(t, filepath.Join(dir, "p"), false, 0)
	defer primary.Close()
	srv := serveSource(t, primary)

	ingestN(t, primary, 8, "history")
	if _, err := primary.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	ingestN(t, primary, 3, "tail")

	// A fresh replica that skips the bootstrap must be refused with 410:
	// serving it records from its epoch would silently gap the chain.
	replicaDir := filepath.Join(dir, "r", "wikidata")
	noBoot := newNodeManager(t, filepath.Join(dir, "nb"), true, 0)
	defer noBoot.Close()
	aNB, cancelNB := startApplier(t, srv.URL, noBoot)
	waitFor(t, 5*time.Second, "410 from the primary", func() bool { return aNB.Stats().TruncatedSignals > 0 })
	cancelNB()
	if got := noBoot.Epoch(); got != 1 {
		t.Fatalf("un-bootstrapped replica advanced to epoch %d, want to stay at 1", got)
	}

	// The real path: pre-flight bootstrap, then recovery, then stream.
	res, err := BootstrapIfBehind(context.Background(), srv.Client(), srv.URL, "wikidata", replicaDir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fetched {
		t.Fatal("bootstrap did not fetch despite the primary's checkpoint horizon")
	}
	if res.Epoch != primary.LastCheckpointEpoch() {
		t.Fatalf("bootstrapped checkpoint epoch %d, want %d", res.Epoch, primary.LastCheckpointEpoch())
	}
	replica, err := substrate.Recover(embed.NewEncoder(), seedStore(seedTriples), managerConfig(filepath.Join(dir, "r"), true, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if got := replica.Epoch(); got != res.Epoch {
		t.Fatalf("replica recovered at epoch %d, want the checkpoint epoch %d", got, res.Epoch)
	}
	a, _ := startApplier(t, srv.URL, replica)
	waitFor(t, 5*time.Second, "post-bootstrap catch-up", func() bool { return replica.Epoch() == primary.Epoch() })
	assertSameContent(t, primary, replica)
	if st := a.Stats(); st.RecordsApplied != 3 {
		t.Fatalf("applied %d tail records after bootstrap, want 3", st.RecordsApplied)
	}

	// Re-running the pre-flight is a no-op once local state is current.
	res, err = BootstrapIfBehind(context.Background(), srv.Client(), srv.URL, "wikidata", replicaDir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fetched {
		t.Fatal("bootstrap re-fetched a checkpoint local state already covers")
	}
}

// TestBootstrapRefusesAlteredTarball: the tar stream carries no content
// checksum of its own, so a byte of triples.nt changed in flight unpacks
// fine — and must then fail the manifest's hash at recovery. With no log
// bridging the seed to the checkpoint's epoch the replica refuses to come
// up, instead of serving the altered fact at the primary's epoch or the
// bare seed at epoch 1.
func TestBootstrapRefusesAlteredTarball(t *testing.T) {
	dir := t.TempDir()
	primary := newNodeManager(t, filepath.Join(dir, "p"), false, 0)
	defer primary.Close()
	ingestN(t, primary, 4, "history")
	info, err := primary.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var tarball bytes.Buffer
	if err := packCheckpoint(&tarball, info.Path); err != nil {
		t.Fatal(err)
	}
	altered := bytes.Replace(tarball.Bytes(), []byte("<Expedition history-3>"), []byte("<Xxpedition history-3>"), 1)
	if bytes.Equal(altered, tarball.Bytes()) {
		t.Fatal("tarball does not hold the triple to alter")
	}

	for name, tc := range map[string]struct {
		tarball []byte
		refused bool
	}{
		"as sent": {tarball.Bytes(), false},
		"altered": {altered, true},
	} {
		dataDir := filepath.Join(dir, name)
		if _, _, err := unpackCheckpoint(bytes.NewReader(tc.tarball), filepath.Join(dataDir, "wikidata")); err != nil {
			t.Fatalf("%s: unpack: %v", name, err)
		}
		replica, err := substrate.Recover(embed.NewEncoder(), seedStore(seedTriples), managerConfig(dataDir, true, 0))
		if tc.refused {
			var gap *substrate.ChainGapError
			if !errors.As(err, &gap) {
				t.Errorf("%s: Recover = %v, want a ChainGapError", name, err)
			} else if !gap.FromSeed || gap.MissingEpoch != 2 || gap.NamedEpoch != info.Epoch || len(gap.Skipped) != 1 {
				t.Errorf("%s: refusal = %+v, want seed base, epoch 2 missing, epoch %d named, 1 skipped", name, gap, info.Epoch)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer replica.Close()
		if rec := replica.Recovery(); rec.SkippedCheckpoints != 0 || replica.Epoch() != info.Epoch {
			t.Errorf("%s: recovered at epoch %d with %+v, want epoch %d and none skipped", name, replica.Epoch(), rec, info.Epoch)
		}
	}
}

// TestEpochNeverRegressesAcrossReplicaRestart: a replica restart resumes
// at exactly the last applied epoch and the chain continues without
// duplicates or gaps.
func TestEpochNeverRegressesAcrossReplicaRestart(t *testing.T) {
	dir := t.TempDir()
	primary := newNodeManager(t, filepath.Join(dir, "p"), false, 0)
	defer primary.Close()
	srv := serveSource(t, primary)
	replica := newNodeManager(t, filepath.Join(dir, "r"), true, 0)

	_, cancel := startApplier(t, srv.URL, replica)
	ingestN(t, primary, 5, "before")
	waitFor(t, 5*time.Second, "pre-restart catch-up", func() bool { return replica.Epoch() == primary.Epoch() })
	preEpoch := replica.Epoch()
	cancel()
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	replica2, err := substrate.Recover(embed.NewEncoder(), seedStore(seedTriples), managerConfig(filepath.Join(dir, "r"), true, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer replica2.Close()
	if got := replica2.Epoch(); got != preEpoch {
		t.Fatalf("replica restarted at epoch %d, want exactly %d (no bump, no regression)", got, preEpoch)
	}
	ingestN(t, primary, 4, "after")
	a2, _ := startApplier(t, srv.URL, replica2)
	waitFor(t, 5*time.Second, "post-restart catch-up", func() bool { return replica2.Epoch() == primary.Epoch() })
	assertSameContent(t, primary, replica2)
	if st := a2.Stats(); st.RecordsSkipped != 0 {
		t.Fatalf("restarted applier skipped %d records, want 0", st.RecordsSkipped)
	}
}

// TestApplierHammer is the race-detector workout: concurrent primary
// ingests (with auto-compaction shipping epoch markers), concurrent
// replica reads, and concurrent replica checkpoints, all while the
// stream applies. At quiesce the books must balance: every epoch the
// primary advanced was shipped and applied exactly once.
func TestApplierHammer(t *testing.T) {
	dir := t.TempDir()
	// Auto-compaction on both ends: the primary's compactions ship
	// zero-triple markers; the replica's are epoch-frozen folds.
	primary := newNodeManager(t, filepath.Join(dir, "p"), false, 48)
	defer primary.Close()
	srv := serveSource(t, primary)
	replica := newNodeManager(t, filepath.Join(dir, "r"), true, 48)
	defer replica.Close()

	a, _ := startApplier(t, srv.URL, replica)
	startEpoch := replica.Epoch()

	const writers, perWriter = 4, 30
	var wg, readerWg sync.WaitGroup
	stopReads := make(chan struct{})
	// Concurrent reads resolve snapshots and scan them while swaps land.
	// They outlive the writers (stopped only after catch-up), so they
	// track their own wait group.
	for i := 0; i < 2; i++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				snap := replica.Current()
				if n := len(snap.Store.All()); n < seedTriples {
					t.Errorf("replica snapshot at epoch %d shrank to %d triples", snap.Epoch, n)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Concurrent local checkpoints on the replica.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			_, _ = replica.Checkpoint(context.Background())
			time.Sleep(10 * time.Millisecond)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ingestN(t, primary, perWriter, fmt.Sprintf("w%d", w))
		}(w)
	}
	// Writers and checkpoints finish before reads stop: reads must
	// observe every interleaving, including post-quiesce.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("hammer did not quiesce")
	}

	// Drain any in-flight auto-compaction, then fold whatever delta is
	// left ourselves: afterwards the primary's epoch is final, so the
	// books below compare stable numbers.
	waitFor(t, 30*time.Second, "primary compaction quiesce", func() bool {
		_, err := primary.Compact(context.Background())
		if err != nil {
			return false
		}
		return primary.Stats().DeltaTriples == 0
	})

	waitFor(t, 30*time.Second, "hammer catch-up", func() bool {
		return replica.Epoch() == primary.Epoch()
	})
	close(stopReads)
	readerWg.Wait()
	assertSameContent(t, primary, replica)

	st := a.Stats()
	shipped := primary.Epoch() - startEpoch
	if got := st.RecordsApplied; got != shipped {
		t.Fatalf("books do not balance: primary advanced %d epochs, replica applied %d records (skipped %d)", shipped, got, st.RecordsSkipped)
	}
	if st.LagRecords != 0 {
		t.Fatalf("lag %d after quiesce", st.LagRecords)
	}
}
