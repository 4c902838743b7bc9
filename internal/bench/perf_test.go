package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestRecallArtifactKeepsCommittedKeys reads the committed recall record
// and writes it back: the three keys a recall artifact carries must come
// out byte for byte as committed (the file also holds the empty sections
// of the retired trajectory schema, which decoding ignores).
func TestRecallArtifactKeepsCommittedKeys(t *testing.T) {
	committed, err := os.ReadFile("../../testdata/trajectory/BENCH_2026-08-08_recall.json")
	if err != nil {
		t.Fatal(err)
	}
	var art PerfArtifact
	if err := json.Unmarshal(committed, &art); err != nil {
		t.Fatal(err)
	}
	if art.Seed != 42 || art.Recall.Corpus != 100000 || art.Recall.RecallAtK != 0.9965 {
		t.Fatalf("committed artifact decoded wrong: %+v", art)
	}
	var buf bytes.Buffer
	if err := art.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var want, got map[string]json.RawMessage
	if err := json.Unmarshal(committed, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("artifact not parseable: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("artifact carries %d keys, want generated_at, seed, recall: %s", len(got), buf.Bytes())
	}
	for _, key := range []string{"generated_at", "seed", "recall"} {
		if !bytes.Equal(got[key], want[key]) {
			t.Errorf("%s: wrote %s, committed %s", key, got[key], want[key])
		}
	}
}
