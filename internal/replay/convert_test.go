package replay

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/trace"
)

// liveRecord fabricates what a trace store would hold for one served
// request: store identity, wall time, usage — and no gold material.
func liveRecord(id, question string, pv map[string]string) trace.Record {
	return trace.Record{
		ID:       id,
		Time:     "2026-08-08T12:00:00.123456789Z",
		Question: question,
		Method:   "io",
		Model:    node.ModelGPT35,
		KG:       "wikidata",
		Answer:   "The answer is {42}.",
		Epoch:    3,
		LLMCalls: 1, PromptTokens: 40, CompletionTokens: 12,
		ElapsedUS:      1500,
		PromptVersions: pv,
	}
}

func writeTraceLog(t *testing.T, recs ...trace.Record) string {
	t.Helper()
	var b strings.Builder
	for _, rec := range recs {
		line, err := trace.Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
	}
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	writeFile(t, path, b.String())
	return path
}

func TestSuiteFromTraces(t *testing.T) {
	pv := map[string]string{"answer-graph": "1", "io": "1"}
	path := writeTraceLog(t,
		liveRecord("t000007", "What is the capital of Alandia?", pv),
		liveRecord("t000009", "Where was Ada born?", pv),
		liveRecord("t000012", "What is the population of Borland?", nil),
	)
	s, err := SuiteFromTraces(path, RecordOptions{Seed: 42, Quick: true, Note: "from prod"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Meta.Seed != 42 || !s.Meta.Quick || s.Meta.Note != "from prod" || s.Meta.Version != SuiteVersion {
		t.Fatalf("meta wrong: %+v", s.Meta)
	}
	if len(s.Meta.PromptVersions) != 2 || s.Meta.PromptVersions["io"] != "1" {
		t.Fatalf("prompt versions not promoted into meta: %+v", s.Meta.PromptVersions)
	}
	if len(s.Records) != 3 {
		t.Fatalf("want 3 records, got %d", len(s.Records))
	}
	for i, rec := range s.Records {
		// Suite identity replaces store identity; wall time is stripped.
		if want := []string{"r000001", "r000002", "r000003"}[i]; rec.ID != want {
			t.Errorf("record %d id = %q, want %q", i, rec.ID, want)
		}
		if rec.Time != "" {
			t.Errorf("record %d kept wall time %q", i, rec.Time)
		}
		// Live traffic carries no gold material, and conversion must not
		// invent any.
		if len(rec.Golds) != 0 || len(rec.Refs) != 0 {
			t.Errorf("record %d grew gold material: %+v", i, rec)
		}
	}
	// The converted suite is a committed artifact: it must round-trip
	// through the suite codec.
	out := filepath.Join(t.TempDir(), "suite.jsonl")
	if err := WriteSuite(out, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSuite(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(s.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(back.Records), len(s.Records))
	}
}

func TestSuiteFromTracesRejectsMixedPromptVersions(t *testing.T) {
	path := writeTraceLog(t,
		liveRecord("t000001", "q1?", map[string]string{"io": "1"}),
		liveRecord("t000002", "q2?", map[string]string{"io": "2"}),
	)
	_, err := SuiteFromTraces(path, RecordOptions{Seed: 1, Quick: true})
	if err == nil || !strings.Contains(err.Error(), "prompt versions") {
		t.Fatalf("mixed prompt versions accepted: %v", err)
	}
}

func TestSuiteFromTracesRejectsUnreplayableRecords(t *testing.T) {
	cases := map[string]trace.Record{
		"no question": func() trace.Record {
			r := liveRecord("t1", "q?", nil)
			r.Question = "  "
			return r
		}(),
		"no method": func() trace.Record {
			r := liveRecord("t1", "q?", nil)
			r.Method = ""
			return r
		}(),
		"bad kg": func() trace.Record {
			r := liveRecord("t1", "q?", nil)
			r.KG = "dbpedia"
			return r
		}(),
	}
	for name, rec := range cases {
		path := writeTraceLog(t, rec)
		if _, err := SuiteFromTraces(path, RecordOptions{Seed: 1}); err == nil {
			t.Errorf("%s: unreplayable record accepted", name)
		}
	}
}

func TestSuiteFromTracesRejectsBrokenLogs(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty.jsonl": "",
		"blank.jsonl": "\n\n",
		"torn.jsonl":  `{"question":"q"`,
	} {
		path := filepath.Join(dir, name)
		writeFile(t, path, content)
		if _, err := SuiteFromTraces(path, RecordOptions{Seed: 1}); err == nil {
			t.Errorf("SuiteFromTraces(%s) accepted a broken log", name)
		}
	}
}

// TestConvertedSuiteReplays: the converter's output is not just
// well-formed, it actually drives the replay harness end to end.
func TestConvertedSuiteReplays(t *testing.T) {
	path := writeTraceLog(t,
		liveRecord("t000001", "What is the capital of Alandia?", nil),
		liveRecord("t000002", "Where was Ada born?", nil),
	)
	s, err := SuiteFromTraces(path, RecordOptions{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	art, err := Run(t.Context(), s)
	if err != nil {
		t.Fatal(err)
	}
	if art.Cells != 2 {
		t.Fatalf("cells = %d, want 2", art.Cells)
	}
	r, ok := art.Methods["io"]
	if !ok || r.N != 2 {
		t.Fatalf("IO method not aggregated: %+v", art.Methods)
	}
}
