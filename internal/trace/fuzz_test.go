package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/failure"
)

// codecSeeds cover the JSONL record surface: real encoded records, the
// empty/blank degenerate cases, and the torn/truncated/glued shapes a
// crashed writer or a corrupted file actually produces — mirroring the
// cypher fuzz corpus's panic-hunting intent.
func codecSeeds() [][]byte {
	full, _ := Encode(Record{
		ID: "t000001", Time: "2026-08-08T00:00:00Z",
		Question: "capital of China?", Method: "ours", Model: "GPT-4", KG: "wikidata",
		Anchors: []string{"China"}, Golds: []string{"Beijing"},
		Answer: "Beijing", Epoch: 3, CacheHit: true,
		LLMCalls: 3, PromptTokens: 120, CompletionTokens: 40,
		Artefacts: Artefacts{
			Gp: []string{"(China, capital, ?)"}, Kept: []KeptSubject{{Subject: "China", Confidence: 0.9, Triples: 4}},
		},
	})
	minimal, _ := Encode(Record{Question: "q", Method: "io"})
	erred, _ := Encode(Record{Question: "q", Method: "cot", Error: "boom", ErrorClass: failure.Upstream})
	return [][]byte{
		full,
		minimal,
		erred,
		full[:len(full)/2],              // torn mid-record
		full[:len(full)-2],              // truncated before the newline
		bytes.TrimRight(full, "\n"),     // unterminated but complete
		append(full[:len(full)-1], '}'), // trailing garbage
		[]byte(""),
		[]byte("\n"),
		[]byte("   \n"),
		[]byte("{}"),
		[]byte(`{"question": 42}`),
		[]byte(`{"epoch": -1}`),
		[]byte(`{"stages": [{"latency": "x"}]}`),
		[]byte(`{"question":"a"}{"question":"b"}`), // glued records
		[]byte("\xff\xfe\x00"),
		[]byte(`{"question":"` + string(bytes.Repeat([]byte("a"), 1000)) + `"}`),
		[]byte(`null`),
		[]byte(`[]`),
		[]byte(`"just a string"`),
	}
}

// FuzzDecode: arbitrary bytes must either decode into a record that
// re-encodes and decodes back to itself (round-trip), or error cleanly —
// never panic, and never half-populate silently.
func FuzzDecode(f *testing.F) {
	for _, seed := range codecSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := Decode(line)
		if err != nil {
			return
		}
		// A decodable line must survive the round trip bit-for-bit at the
		// Record level: Encode then Decode reproduces the same record.
		out, err := Encode(rec)
		if err != nil {
			t.Fatalf("Decode accepted a record Encode refuses: %v", err)
		}
		back, err := Decode(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v\nline: %q", err, out)
		}
		if !reflect.DeepEqual(rec, back) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", back, rec)
		}
	})
}

// TestFuzzSeedsTornError pins the corpus intent outside fuzz mode: every
// torn or structurally broken seed errors rather than yielding a record.
func TestFuzzSeedsTornError(t *testing.T) {
	full, _ := Encode(Record{Question: "q", Method: "ours", Answer: "a"})
	for name, line := range map[string][]byte{
		"torn":     full[:len(full)/2],
		"glued":    []byte(`{"question":"a"}{"question":"b"}`),
		"empty":    []byte(""),
		"non-json": []byte("CORRUPT\n"),
		"array":    []byte(`[]`),
	} {
		if _, err := Decode(line); err == nil {
			t.Errorf("Decode(%s) accepted broken input", name)
		}
	}
	// And the healthy seed keeps decoding.
	if _, err := Decode(full); err != nil {
		t.Errorf("Decode(full) = %v, want ok", err)
	}
}

// TestDecodeDropsEveryEmptyList: each omitempty list or map of a Record
// that a line spells empty decodes as nil, the value Encode's omission
// re-decodes to. The fields come from the Record type itself, its
// embedded Artefacts' included, so a list added to either later is held
// to the same rule.
func TestDecodeDropsEveryEmptyList(t *testing.T) {
	for _, field := range reflect.VisibleFields(reflect.TypeOf(Record{})) {
		name, opts, _ := strings.Cut(field.Tag.Get("json"), ",")
		kind := field.Type.Kind()
		if kind != reflect.Slice && kind != reflect.Map {
			continue
		}
		if !strings.Contains(opts, "omitempty") {
			t.Fatalf("%s: a list without omitempty; this test assumes every list omits when empty", field.Name)
		}
		empty := "[]"
		if kind == reflect.Map {
			empty = "{}"
		}
		line := `{"` + name + `":` + empty + `}`
		rec, err := Decode([]byte(line))
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if v := reflect.ValueOf(rec).FieldByIndex(field.Index); !v.IsNil() {
			t.Errorf("%s decodes %s as an empty non-nil %s", line, field.Name, kind)
		}
	}
}

// FuzzOpenFileStore: any bytes as a store file must open without a panic
// and without allocating more than the file backs. Every line is either a
// record or counted as dropped, List names each record once in descending
// sequence order, every listed ID gets the same record, and an append
// takes the next sequence number.
func FuzzOpenFileStore(f *testing.F) {
	one, _ := Encode(Record{ID: "t000001", Question: "q1", Method: "ours"})
	nine, _ := Encode(Record{ID: "t000009", Question: "q9", Method: "ours"})
	f.Add(append(one, `{"question":"torn`...))
	f.Add(slices.Concat(one, []byte("CORRUPT LINE\n"), nine))
	f.Add(slices.Concat(nine, one, one))
	f.Add([]byte(`{"id":"t999999999"}` + "\n"))
	f.Add([]byte(`{"id":"t9223372036854775807"}` + "\n"))
	f.Add([]byte(`{"id":"t1"}` + "\n" + `{"id":"t01"}` + "\n" + `{"id":"x"}` + "\n"))
	f.Add([]byte(`{"id":"t1","question":"\"io\"","method":"\u212aEY"}` + "\n" + `{"id":"t2","prompt_versions":{"io":"1"},"method" : "ſc"}` + "\n"))
	for _, seed := range codecSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, traceFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := NewFileStore(dir)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20+64*uint64(len(data)) {
			t.Fatalf("opening %d bytes allocated %d", len(data), grew)
		}
		lines := bytes.Count(data, []byte("\n"))
		if len(data) > 0 && data[len(data)-1] != '\n' {
			lines++ // the torn tail
		}
		st := s.Stats()
		if st.Records+st.Dropped != lines {
			t.Fatalf("%d records + %d dropped from %d lines", st.Records, st.Dropped, lines)
		}
		all, err := s.List(ListOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != st.Records {
			t.Fatalf("List returned %d records, Stats counts %d", len(all), st.Records)
		}
		newest, last := 0, 0
		for i, rec := range all {
			seq, ok := parseSeq(rec.ID)
			if !ok || (i > 0 && seq >= last) {
				t.Fatalf("record %d has ID %q after sequence %d", i, rec.ID, last)
			}
			if i == 0 {
				newest = seq
			}
			last = seq
			got, err := s.Get(rec.ID)
			if err != nil || !reflect.DeepEqual(got, rec) {
				t.Fatalf("Get(%q) = %+v (%v), List has %+v", rec.ID, got, err, rec)
			}
		}
		// A method filter keeps exactly the records whose method folds to
		// it, however the lines spell them.
		probes := []string{"ours", "IO", "k", "S", "ſ"}
		for _, rec := range all {
			if rec.Method != "" {
				probes = append(probes, rec.Method, strings.ToUpper(rec.Method))
			}
		}
		for _, method := range probes {
			var want []Record
			for _, rec := range all {
				if strings.EqualFold(method, rec.Method) {
					want = append(want, rec)
				}
			}
			got, err := s.List(ListOptions{Method: method})
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("List(method %q) = %d records (%v), want %d", method, len(got), err, len(want))
			}
		}
		next, err := s.Append(Record{Question: "next", Method: "ours"})
		if err != nil {
			return // the recovered sequence is at the top of the int range
		}
		if seq, _ := parseSeq(next.ID); seq != newest+1 {
			t.Fatalf("appended %q after sequence %d", next.ID, newest)
		}
		if got, err := s.Get(next.ID); err != nil || got.Question != "next" {
			t.Fatalf("Get(%q) after append: %+v (%v)", next.ID, got, err)
		}
	})
}
