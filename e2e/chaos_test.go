package e2e

import (
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/racedetect"
)

// fact i is a synthetic triple every node must agree on; question(i)
// retrieves it through the normal answer path.
func fact(i int) string {
	return fmt.Sprintf(`{"kg": "wikidata", "triples": [{"subject": "Widget%d", "relation": "secret designation", "object": "Zephyr%d"}]}`, i, i)
}

func question(i int) string {
	return fmt.Sprintf("What is the secret designation of Widget%d?", i)
}

// TestChaosReplicaKillAndCatchUp is the replication chaos suite from the
// issue: a real primary with two real replica processes, ingest under
// load, kill -9 one replica mid-stream, compact the primary past the
// dead replica's epoch (so its WAL position is truncated away and the
// restart MUST take the bootstrap path), restart it, and require full
// catch-up: caught_up in /v1/metrics, epochs that never regress, and
// answers byte-identical to the primary on every node.
func TestChaosReplicaKillAndCatchUp(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real binaries")
	}
	if racedetect.Enabled {
		t.Skip("process-level chaos; race coverage lives in internal/repl")
	}
	pgakvd := filepath.Join(binaries(t), "pgakvd")

	// -compact-threshold 0: epochs move only when this test says so.
	// -cache-size 0: every answer runs the pipeline, nothing is replayed
	// from cache. -fsync always: a kill -9 loses at most a torn tail.
	common := []string{"-quick", "-seed", "11", "-fsync", "always", "-compact-threshold", "0", "-cache-size", "0"}
	pDir, r1Dir, r2Dir := t.TempDir(), t.TempDir(), t.TempDir()

	primary := startNode(t, "primary", pgakvd, freePort(t), append([]string{"-data-dir", pDir}, common...)...)
	waitHealthy(t, primary, 2*time.Minute)

	r1Port := freePort(t)
	r1Args := append([]string{"-data-dir", r1Dir, "-replica-of", primary.url}, common...)
	r1 := startNode(t, "replica1", pgakvd, r1Port, r1Args...)
	r2 := startNode(t, "replica2", pgakvd, freePort(t), append([]string{"-data-dir", r2Dir, "-replica-of", primary.url}, common...)...)
	waitHealthy(t, r1, 2*time.Minute)
	waitHealthy(t, r2, 2*time.Minute)

	ingest := func(i int) {
		t.Helper()
		postJSON(t, primary.url+"/v1/ingest", fact(i), nil)
	}

	// Phase 1: steady state. 20 facts, both replicas follow live.
	for i := 0; i < 20; i++ {
		ingest(i)
	}
	var pEpoch uint64
	waitFor(t, 30*time.Second, "both replicas caught up with phase 1", func() bool {
		pm, err := metrics(t, primary)
		if err != nil {
			return false
		}
		pEpoch = pm.Substrates["wikidata"].Epoch
		for _, r := range []*node{r1, r2} {
			m, err := metrics(t, r)
			if err != nil || m.Replication == nil || !m.Replication.CaughtUp {
				return false
			}
			if m.Substrates["wikidata"].Epoch != pEpoch {
				return false
			}
		}
		return true
	})
	preKill, err := metrics(t, r1)
	if err != nil {
		t.Fatal(err)
	}
	preKillEpoch := preKill.Substrates["wikidata"].Epoch
	t.Logf("phase 1 done: primary epoch %d, replicas caught up", pEpoch)

	// Phase 2: ingest under load from a background writer, and kill -9
	// replica1 while records are in flight — mid-stream, mid-apply,
	// possibly mid-WAL-write on its side.
	ingestErrs := make(chan error, 1)
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		for i := 20; i < 60; i++ {
			resp, err := http.Post(primary.url+"/v1/ingest", "application/json", strings.NewReader(fact(i)))
			if err != nil {
				ingestErrs <- fmt.Errorf("background ingest %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				ingestErrs <- fmt.Errorf("background ingest %d: %s", i, resp.Status)
				return
			}
		}
	}()
	time.Sleep(30 * time.Millisecond) // let some records be in flight
	r1.kill9()
	t.Log("replica1 killed with SIGKILL mid-stream")
	<-ingestDone
	select {
	case err := <-ingestErrs:
		t.Fatal(err)
	default:
	}

	// Phase 3: compact the primary. On a durable node this also writes a
	// checkpoint and truncates the WAL — the record chain replica1 died
	// holding a position in no longer exists, so its restart cannot
	// resume by epoch alone and must re-bootstrap.
	var compacted struct {
		Epoch uint64 `json:"epoch"`
	}
	postJSON(t, primary.url+"/v1/snapshot/compact", `{"kg": "wikidata"}`, &compacted)
	if compacted.Epoch <= preKillEpoch {
		t.Fatalf("compaction epoch %d did not pass the dead replica's epoch %d", compacted.Epoch, preKillEpoch)
	}
	// A few more facts after the checkpoint, so catch-up needs both the
	// bootstrap tarball AND the streamed WAL tail.
	for i := 60; i < 65; i++ {
		ingest(i)
	}

	// Phase 4: restart replica1 on its old data dir and port.
	r1 = startNode(t, "replica1-restarted", pgakvd, r1Port, r1Args...)
	waitHealthy(t, r1, 2*time.Minute)

	// Epochs must never regress: every observation while catching up is
	// >= the one before, and the first is >= the pre-kill epoch (the
	// bootstrapped checkpoint is far ahead of it).
	lastSeen := preKillEpoch
	waitFor(t, 60*time.Second, "restarted replica1 to catch up", func() bool {
		m, err := metrics(t, r1)
		if err != nil {
			return false
		}
		e := m.Substrates["wikidata"].Epoch
		if e < lastSeen {
			t.Fatalf("replica1 epoch regressed: %d after %d", e, lastSeen)
		}
		lastSeen = e
		pm, err := metrics(t, primary)
		if err != nil {
			return false
		}
		return m.Replication != nil && m.Replication.CaughtUp &&
			e == pm.Substrates["wikidata"].Epoch
	})
	after, err := metrics(t, r1)
	if err != nil {
		t.Fatal(err)
	}
	rec := after.Substrates["wikidata"].Durability.Recovery
	if rec.CheckpointEpoch < compacted.Epoch {
		t.Fatalf("restart recovered checkpoint epoch %d; want >= %d — the bootstrap path was not taken", rec.CheckpointEpoch, compacted.Epoch)
	}
	ws := after.Replication.Sources["wikidata"]
	if ws.LagRecords != 0 || !ws.Connected {
		t.Fatalf("replica1 not fully caught up: %+v", ws)
	}
	if after.Replication.Role != "replica" || ws.AppliedEpoch < compacted.Epoch {
		t.Fatalf("replica1 reports role %q at applied epoch %d; want a replica at or past epoch %d", after.Replication.Role, ws.AppliedEpoch, compacted.Epoch)
	}
	t.Logf("replica1 restarted: bootstrapped checkpoint epoch %d, applied %d tail record(s), epoch %d",
		rec.CheckpointEpoch, ws.RecordsApplied, after.Substrates["wikidata"].Epoch)

	// Replica2 rode through everything live.
	waitFor(t, 30*time.Second, "replica2 caught up", func() bool {
		m, err := metrics(t, r2)
		pm, perr := metrics(t, primary)
		return err == nil && perr == nil && m.Replication != nil && m.Replication.CaughtUp &&
			m.Substrates["wikidata"].Epoch == pm.Substrates["wikidata"].Epoch
	})

	// Phase 5: byte-identity. With ingestion quiesced and all three nodes
	// at the same epoch, the canonicalised answer JSON (everything except
	// wall-clock timing) must match byte for byte — same answer text,
	// same epoch, same token accounting — on every node, for facts from
	// every phase: pre-kill, while replica1 was dead, and post-restart.
	for _, i := range []int{0, 7, 19, 25, 42, 59, 61, 64} {
		for _, method := range []string{"rag", "ours"} {
			want := canonicalAnswer(t, primary, question(i), method)
			// Only rag answers verbatim from retrieved triples; "ours" runs
			// the full pipeline and may phrase (or even miss) the fact — what
			// matters there is that every node phrases it identically.
			if method == "rag" && !strings.Contains(want, fmt.Sprintf("Zephyr%d", i)) {
				t.Fatalf("primary answer for fact %d (%s) does not contain the ingested object: %s", i, method, want)
			}
			for _, r := range []*node{r1, r2} {
				if got := canonicalAnswer(t, r, question(i), method); got != want {
					t.Errorf("%s diverges from primary on fact %d (%s):\n  primary: %s\n  %s: %s", r.name, i, method, want, r.name, got)
				}
			}
		}
	}
}

// TestReplicaRedirectsIngest: a replica process never accepts a local
// write — it 307s to the primary so a redirect-following client still
// lands the ingest in the right place.
func TestReplicaRedirectsIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real binaries")
	}
	if racedetect.Enabled {
		t.Skip("process-level chaos; race coverage lives in internal/repl")
	}
	pgakvd := filepath.Join(binaries(t), "pgakvd")
	common := []string{"-quick", "-seed", "11", "-fsync", "always", "-compact-threshold", "0", "-cache-size", "0"}

	primary := startNode(t, "primary", pgakvd, freePort(t), append([]string{"-data-dir", t.TempDir()}, common...)...)
	waitHealthy(t, primary, 2*time.Minute)
	replica := startNode(t, "replica", pgakvd, freePort(t), append([]string{"-data-dir", t.TempDir(), "-replica-of", primary.url}, common...)...)
	waitHealthy(t, replica, 2*time.Minute)

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse // surface the 307 instead of following it
	}}
	resp, err := client.Post(replica.url+"/v1/ingest", "application/json", strings.NewReader(fact(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("replica ingest: %s, want 307", resp.Status)
	}
	if loc := resp.Header.Get("Location"); loc != primary.url+"/v1/ingest" {
		t.Fatalf("redirect Location = %q, want %q", loc, primary.url+"/v1/ingest")
	}

	// And a stock client that follows redirects lands the write on the
	// primary, which then ships it right back to this replica.
	postJSON(t, replica.url+"/v1/ingest", fact(1), nil)
	waitFor(t, 30*time.Second, "redirected ingest to replicate back", func() bool {
		m, err := metrics(t, replica)
		if err != nil || m.Replication == nil {
			return false
		}
		return m.Replication.CaughtUp && m.Replication.Sources["wikidata"].RecordsApplied >= 1
	})
	want := canonicalAnswer(t, primary, question(1), "rag")
	if got := canonicalAnswer(t, replica, question(1), "rag"); got != want {
		t.Fatalf("replica answer diverges after redirected ingest:\n  primary: %s\n  replica: %s", want, got)
	}
}
