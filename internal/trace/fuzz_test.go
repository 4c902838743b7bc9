package trace

import (
	"bytes"
	"reflect"
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
		Gp: []string{"(China, capital, ?)"}, Kept: []KeptSubject{{Subject: "China", Confidence: 0.9, Triples: 4}},
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
// re-decodes to. The fields come from the Record type itself, so a list
// added to it later is held to the same rule.
func TestDecodeDropsEveryEmptyList(t *testing.T) {
	typ := reflect.TypeOf(Record{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
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
		if v := reflect.ValueOf(rec).Field(i); !v.IsNil() {
			t.Errorf("%s decodes %s as an empty non-nil %s", line, field.Name, kind)
		}
	}
}
