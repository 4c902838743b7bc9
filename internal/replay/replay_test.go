package replay

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// Recording a suite is the expensive step (it answers every cell), so the
// tests share one.
var (
	suiteOnce sync.Once
	suiteVal  Suite
	suiteErr  error
)

func testSuite(t *testing.T) Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = RecordSuite(context.Background(), RecordOptions{
			Seed:       42,
			Quick:      true,
			Methods:    []string{"ours", "io", "cot"},
			PerDataset: 2,
			Note:       "test suite",
		})
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteVal
}

func TestRecordSuiteShape(t *testing.T) {
	s := testSuite(t)
	// 7 datasets (paper trio + 4 scenario packs) x 3 methods x 2 questions.
	if len(s.Records) != 42 {
		t.Fatalf("want 42 records, got %d", len(s.Records))
	}
	if s.Meta.Seed != 42 || !s.Meta.Quick || s.Meta.Version != SuiteVersion {
		t.Fatalf("meta wrong: %+v", s.Meta)
	}
	seenGold := false
	for _, rec := range s.Records {
		if rec.ID == "" {
			t.Fatalf("record not stamped: %+v", rec)
		}
		if rec.Time != "" {
			t.Fatalf("suite records must carry no wall time: %+v", rec)
		}
		if rec.KG != "wikidata" && rec.KG != "freebase" {
			t.Fatalf("record has no KG: %+v", rec)
		}
		if len(rec.Golds) > 0 || len(rec.Refs) > 0 {
			seenGold = true
		}
	}
	if !seenGold {
		t.Fatal("no record carries gold material; replay could never score")
	}
}

func TestSuiteRoundTrip(t *testing.T) {
	s := testSuite(t)
	path := filepath.Join(t.TempDir(), "suite.jsonl")
	if err := WriteSuite(path, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSuite(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Meta, s.Meta) {
		t.Fatalf("meta diverged: %+v vs %+v", back.Meta, s.Meta)
	}
	if len(back.Records) != len(s.Records) {
		t.Fatalf("record count diverged: %d vs %d", len(back.Records), len(s.Records))
	}
	// And writing the reread suite reproduces the file byte for byte.
	path2 := filepath.Join(t.TempDir(), "suite2.jsonl")
	if err := WriteSuite(path2, back); err != nil {
		t.Fatal(err)
	}
	b1 := mustRead(t, path)
	b2 := mustRead(t, path2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("suite files diverged across a read/write round trip")
	}
}

// TestReplayIsByteIdentical is the acceptance criterion: replaying the
// same recorded suite twice produces byte-identical artifacts.
func TestReplayIsByteIdentical(t *testing.T) {
	s := testSuite(t)
	a1, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := a1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("artifacts diverged across two replays of the same suite:\n--- run 1\n%s\n--- run 2\n%s", b1, b2)
	}
}

// TestReplayMatchesRecording: replaying right after recording on the same
// binary shows zero drift — same answers, same epochs — and sane reports.
func TestReplayMatchesRecording(t *testing.T) {
	s := testSuite(t)
	art, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if art.Cells != len(s.Records) {
		t.Fatalf("cells %d, want %d", art.Cells, len(s.Records))
	}
	if len(art.Methods) != 3 {
		t.Fatalf("methods %v, want 3", art.Methods)
	}
	for m, r := range art.Methods {
		if r.N != 14 {
			t.Errorf("%s: n=%d, want 14", m, r.N)
		}
		if r.AnswerDrift != 0 || r.EpochDrift != 0 {
			t.Errorf("%s: drift on an unchanged binary: %+v", m, r)
		}
		if r.LLMCalls == 0 || r.TotalTokens() == 0 {
			t.Errorf("%s: no usage accounted: %+v", m, r)
		}
		if r.Latency.P95 <= 0 || r.Latency.P50 > r.Latency.P95 || r.Latency.P95 > r.Latency.P99 {
			t.Errorf("%s: latency percentiles disordered: %+v", m, r.Latency)
		}
	}
	// Round trip the artifact through its codec.
	raw, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cells != art.Cells || len(back.Methods) != len(art.Methods) {
		t.Fatalf("artifact round trip diverged: %+v", back)
	}
	// Zero drift against itself: the gate passes with no findings.
	rep := Diff(art, art, DefaultThresholds())
	if !rep.OK() || len(rep.Findings) != 0 {
		t.Fatalf("self-diff not clean: %s", rep.Format())
	}
}

func TestReadSuiteRejectsBrokenFiles(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty.jsonl":       "",
		"no-records.jsonl":  `{"suite_version":1,"seed":42,"quick":true}` + "\n",
		"bad-meta.jsonl":    "CORRUPT\n",
		"bad-version.jsonl": `{"suite_version":99}` + "\n" + `{"question":"q","method":"io","epoch":0,"cache_hit":false,"llm_calls":0,"prompt_tokens":0,"completion_tokens":0}` + "\n",
		"torn-record.jsonl": `{"suite_version":1,"seed":42,"quick":true}` + "\n" + `{"question":"q"` + "\n",
	} {
		path := filepath.Join(dir, name)
		writeFile(t, path, content)
		if _, err := ReadSuite(path); err == nil {
			t.Errorf("ReadSuite(%s) accepted a broken suite", name)
		}
	}
}

func TestVirtualLatencyMonotone(t *testing.T) {
	base := VirtualLatencyUS(2, 100, 20)
	if VirtualLatencyUS(3, 100, 20) <= base {
		t.Error("extra call must cost virtual time")
	}
	if VirtualLatencyUS(2, 200, 20) <= base {
		t.Error("extra prompt tokens must cost virtual time")
	}
	if VirtualLatencyUS(2, 100, 40) <= base {
		t.Error("extra completion tokens must cost virtual time")
	}
	if VirtualLatencyUS(0, 0, 0) != 0 {
		t.Error("no work, no virtual time")
	}
}
