package e2e

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/racedetect"
)

// TestPrimaryKill9KeepsAckedIngest is durability end to end against the
// real binary (docs/operations.md "Verifying durability by hand"): a
// primary under -fsync always acks an ingest and answers from it, is
// killed -9, restarts on the same data dir, and still answers the fact at
// an epoch no lower than before the crash.
func TestPrimaryKill9KeepsAckedIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real binaries")
	}
	if racedetect.Enabled {
		t.Skip("process-level kill -9; race coverage of recovery lives in internal/substrate")
	}
	pgakvd := filepath.Join(binaries(t), "pgakvd")
	args := []string{"-quick", "-data-dir", t.TempDir(), "-fsync", "always"}
	const q = `{"question": "What is the prime directive of Zorblax?", "method": "rag"}`

	type reply struct {
		Answer string `json:"answer"`
		Epoch  uint64 `json:"epoch"`
	}
	ask := func(n *node) reply {
		t.Helper()
		var r reply
		postJSON(t, n.url+"/v1/answer", q, &r)
		if !strings.Contains(r.Answer, "Flumox42") {
			t.Fatalf("%s answered %q at epoch %d, want the ingested Flumox42", n.name, r.Answer, r.Epoch)
		}
		return r
	}

	port := freePort(t)
	primary := startNode(t, "primary", pgakvd, port, args...)
	waitHealthy(t, primary, 2*time.Minute)
	var ing struct {
		Added int    `json:"added"`
		Epoch uint64 `json:"epoch"`
	}
	postJSON(t, primary.url+"/v1/ingest",
		`{"kg": "wikidata", "triples": [{"subject": "Zorblax", "relation": "prime directive", "object": "Flumox42"}]}`, &ing)
	if ing.Added != 1 {
		t.Fatalf("ingest added %d triples, want 1", ing.Added)
	}
	before := ask(primary)

	primary.kill9()
	restarted := startNode(t, "restarted primary", pgakvd, port, args...)
	waitHealthy(t, restarted, 2*time.Minute)
	if after := ask(restarted); after.Epoch < before.Epoch {
		t.Fatalf("epoch went backwards across kill -9: %d before, %d after", before.Epoch, after.Epoch)
	}
}
