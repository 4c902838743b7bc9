package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/core/exec"
	"repro/internal/failure"
	"repro/internal/kg"
)

// sampleResult builds a Result exercising every serialized trace field.
func sampleResult() answer.Result {
	return answer.Result{
		Answer:           "Beijing",
		Method:           "ours",
		Model:            "GPT-4",
		Epoch:            7,
		Elapsed:          1500 * time.Microsecond,
		LLMCalls:         3,
		PromptTokens:     120,
		CompletionTokens: 40,
		Trace: &core.Trace{
			Question:   "capital of China?",
			PseudoCode: "CREATE (c:Country {name: 'China'})",
			PseudoErr:  errors.New("bad cypher"),
			Gp:         kg.NewGraph(kg.NewTriple("China", "capital", "?")),
			Gg:         kg.NewGraph(kg.NewTriple("China", "capital", "Beijing")),
			Gf:         kg.NewGraph(kg.NewTriple("China", "capital", "Beijing")),
			Kept:       []core.SubjectConfidence{{Subject: "China", Confidence: 0.9, Triples: 4}},
			Stages: []exec.Span{
				{Stage: core.StagePseudo, LLMCalls: 1, PromptTokens: 50},
				{Stage: core.StageAnswer, LLMCalls: 1, CompletionTokens: 20},
			},
		},
	}
}

func TestBuildCapturesEverything(t *testing.T) {
	q := answer.Query{Text: "capital of China?", Open: false, Anchors: []string{"China"}}
	res := sampleResult()
	rec := Build(q, res, nil, Meta{KG: "wikidata", CacheHit: true, Shared: true, Golds: []string{"Beijing"}})

	if rec.Question != q.Text || rec.Method != "ours" || rec.Model != "GPT-4" || rec.KG != "wikidata" {
		t.Fatalf("identity fields wrong: %+v", rec)
	}
	if rec.Epoch != 7 || !rec.CacheHit || !rec.Shared {
		t.Fatalf("epoch/cache-hit/shared not captured: epoch=%d hit=%v shared=%v", rec.Epoch, rec.CacheHit, rec.Shared)
	}
	if rec.LLMCalls != 3 || rec.PromptTokens != 120 || rec.CompletionTokens != 40 || rec.ElapsedUS != 1500 {
		t.Fatalf("usage wrong: %+v", rec)
	}
	if len(rec.Stages) != 2 || rec.Stages[0].Stage != core.StagePseudo {
		t.Fatalf("stages wrong: %+v", rec.Stages)
	}
	if len(rec.Gp) != 1 || len(rec.Gg) != 1 || len(rec.Gf) != 1 {
		t.Fatalf("graphs not rendered: %+v", rec)
	}
	if rec.PseudoErr != "bad cypher" || rec.PseudoCode == "" {
		t.Fatalf("pseudo fields wrong: %+v", rec)
	}
	if len(rec.Kept) != 1 || rec.Kept[0].Subject != "China" {
		t.Fatalf("kept wrong: %+v", rec.Kept)
	}
	if len(rec.Golds) != 1 || rec.Golds[0] != "Beijing" {
		t.Fatalf("golds wrong: %+v", rec.Golds)
	}
	if rec.Error != "" || rec.ErrorClass != failure.None {
		t.Fatalf("unexpected error fields: %+v", rec)
	}
}

func TestBuildError(t *testing.T) {
	q := answer.Query{Text: "q?"}
	res := answer.Result{Method: "cot", Trace: &core.Trace{Stages: []exec.Span{{Stage: "sample", Err: failure.Deadline}}}}
	rec := Build(q, res, &answer.InvalidQueryError{Reason: "nope"}, Meta{})
	if rec.Error == "" || rec.ErrorClass != failure.InvalidQuery {
		t.Fatalf("error not classified: %+v", rec)
	}
	if len(rec.Stages) != 1 || rec.Stages[0].Err != failure.Deadline {
		t.Fatalf("partial spans lost: %+v", rec.Stages)
	}
}

// TestBuildIsolation is the aliasing contract: a stored record and the
// live result it was built from must be fully independent — mutating one
// never reaches the other, for every serialized trace field.
func TestBuildIsolation(t *testing.T) {
	q := answer.Query{Text: "capital of China?", Anchors: []string{"China"}}
	res := sampleResult()
	rec := Build(q, res, nil, Meta{KG: "wikidata", Golds: []string{"Beijing"}})
	want := Build(q, sampleResult(), nil, Meta{KG: "wikidata", Golds: []string{"Beijing"}})

	// Mutate every mutable reference the live result still holds.
	res.Trace.Gp.Add(kg.NewTriple("poison", "p", "p"))
	res.Trace.Gg.Add(kg.NewTriple("poison", "p", "p"))
	res.Trace.Gf.Add(kg.NewTriple("poison", "p", "p"))
	res.Trace.Kept[0].Subject = "CORRUPTED"
	res.Trace.Stages[0].Stage = "CORRUPTED"
	res.Trace.Stages[1].LLMCalls = 99
	q.Anchors[0] = "CORRUPTED"

	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("mutating the live result changed the record:\n got %+v\nwant %+v", rec, want)
	}

	// And the other direction: corrupting the record must not reach the
	// (re-built) live trace.
	res2 := sampleResult()
	rec2 := Build(q, res2, nil, Meta{})
	rec2.Stages[0].Stage = "CORRUPTED"
	rec2.Kept[0].Subject = "CORRUPTED"
	rec2.Gp[0] = "CORRUPTED"
	if res2.Trace.Stages[0].Stage != core.StagePseudo || res2.Trace.Kept[0].Subject != "China" {
		t.Fatalf("mutating the record reached the live trace: %+v", res2.Trace)
	}
	if res2.Trace.Gp.Triples[0].Subject != "China" {
		t.Fatalf("mutating the record reached the live graph: %+v", res2.Trace.Gp)
	}
}

func TestStamp(t *testing.T) {
	rec := Record{Question: "q"}
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	got := rec.Stamp("t000042", at)
	if got.ID != "t000042" || got.Time != "2026-08-08T12:00:00Z" {
		t.Fatalf("stamp wrong: %+v", got)
	}
	// A zero time stays omitted (deterministic suites).
	if got2 := rec.Stamp("t1", time.Time{}); got2.Time != "" {
		t.Fatalf("zero time should stay empty, got %q", got2.Time)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rec := Build(
		answer.Query{Text: "capital of China?", Open: true, Anchors: []string{"China"}},
		sampleResult(),
		errors.New("upstream boom"),
		Meta{KG: "wikidata", CacheHit: true, Golds: []string{"Beijing"}, Refs: []string{"long ref"}},
	).Stamp("t000001", time.Date(2026, 8, 8, 1, 2, 3, 0, time.UTC))

	line, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("encoded line is not newline-terminated")
	}
	back, err := Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, rec)
	}
}

func TestDecodeRejectsTornAndGarbage(t *testing.T) {
	line, err := Encode(Record{Question: "q", Method: "ours"})
	if err != nil {
		t.Fatal(err)
	}
	for name, input := range map[string][]byte{
		"empty":      []byte(""),
		"blank":      []byte("   \n"),
		"torn":       line[:len(line)/2],
		"not-json":   []byte("not json at all\n"),
		"glued":      append(append([]byte{}, line[:len(line)-1]...), []byte(`{"question":"x"}`+"\n")...),
		"wrong-type": []byte(`{"question": 42}` + "\n"),
	} {
		if _, err := Decode(input); err == nil {
			t.Errorf("Decode(%s) = nil error, want failure", name)
		}
	}
}

// everyField is a record with every field set, as the encoder wrote it
// before Artefacts was split out of Record.
const everyField = `{"id":"t000007","time":"2026-08-08T00:00:00Z","question":"capital of China?","method":"ours","model":"GPT-4","kg":"wikidata","open":true,"anchors":["China"],"golds":["Beijing"],"refs":["Beijing is."],"answer":"Beijing","error":"stage verify: deadline","error_class":"deadline","epoch":3,"cache_hit":true,"shared":true,"elapsed_us":1500,"llm_calls":3,"prompt_tokens":120,"completion_tokens":40,"prompt_versions":{"answer-graph":"1","verify":"2"},"stages":[{"stage":"pseudo-graph","offset":5,"latency":2000000,"llm_calls":1,"prompt_tokens":80,"completion_tokens":30,"input_size":17,"output_size":2},{"stage":"verify","offset":2000005,"latency":7,"llm_calls":0,"prompt_tokens":0,"completion_tokens":0,"input_size":0,"output_size":0,"err":"deadline"}],"pseudo_code":"CREATE (c:Country {name: 'China'})","pseudo_err":"cypher: \u003cbad\u003e","gp":["\u003cChina\u003e \u003ccapital\u003e \u003c?\u003e"],"gg":["\u003cChina\u003e \u003ccapital\u003e \u003cBeijing\u003e"],"gf":["\u003cChina\u003e \u003ccapital\u003e \u003cBeijing\u003e"],"kept":[{"subject":"China","confidence":0.923,"triples":4}]}` + "\n"

// TestReencodeIsByteIdentical holds the disk format still: every record
// line of the committed replay suite, and everyField, decodes and
// re-encodes to the same bytes, so no field moved, was renamed or changed
// its encoding — the embedded Artefacts' fields included. The committed
// FuzzDecode seeds are hand-made lines (a key in the wrong case, an empty
// list); each one that decodes must re-encode to a line that re-encodes
// to itself, and both decode to the zero record, whose line is pinned.
func TestReencodeIsByteIdentical(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "baselines", "suite-quick.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))[1:] // the first is the suite's meta header
	if len(lines) < 2 {
		t.Fatal("the suite has no records")
	}
	for i, line := range append(lines, []byte(everyField)) {
		if len(line) == 0 {
			continue
		}
		rec, err := Decode(line)
		if err != nil {
			t.Fatalf("line %d: %v", i+2, err)
		}
		if out, err := Encode(rec); err != nil || !bytes.Equal(out, line) {
			t.Fatalf("line %d re-encodes differently (%v):\n got %s\nwant %s", i+2, err, out, line)
		}
	}

	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no committed FuzzDecode seeds (%v)", err)
	}
	const zero = `{"question":"","method":"","epoch":0,"cache_hit":false,"llm_calls":0,"prompt_tokens":0,"completion_tokens":0}` + "\n"
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is a header line and one []byte("...") value.
		_, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		line, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(value, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rec, err := Decode([]byte(line))
		if err != nil {
			continue
		}
		once, _ := Encode(rec)
		back, err := Decode(once)
		if err != nil {
			t.Fatalf("%s: the re-encoded line does not decode: %v", path, err)
		}
		if twice, _ := Encode(back); !bytes.Equal(twice, once) {
			t.Fatalf("%s: re-encoding is not stable:\n got %s\nwant %s", path, twice, once)
		}
		if reflect.DeepEqual(rec, Record{}) && string(once) != zero {
			t.Fatalf("%s: the zero record encodes as %s, want %s", path, once, zero)
		}
	}
}
