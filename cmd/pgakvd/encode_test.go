package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core/exec"
	"repro/internal/failure"
	"repro/internal/trace"
	"repro/internal/world"
)

// The reference encodings: the same types without answerResponse's
// MarshalJSON, so encoding/json reflects over them as it did before the
// answer encoder existed.
type (
	refAnswer    answerResponse
	refBatchItem struct {
		Index  int           `json:"index"`
		Result *refAnswer    `json:"result,omitempty"`
		Error  string        `json:"error,omitempty"`
		Class  failure.Class `json:"class,omitempty"`
	}
	refBatch struct {
		Method    string         `json:"method"`
		Model     string         `json:"model"`
		KG        string         `json:"kg"`
		N         int            `json:"n"`
		Failed    int            `json:"failed"`
		ElapsedMS int64          `json:"elapsed_ms"`
		Items     []refBatchItem `json:"items"`
	}
)

// referenceEncode is what writeJSON wrote for v: json.NewEncoder(w).Encode.
func referenceEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEncoding fails unless writeAnswer, appendAnswer and MarshalJSON
// all produce encoding/json's bytes for v.
func checkEncoding(t testing.TB, v answerResponse) {
	t.Helper()
	want := referenceEncode(t, (*refAnswer)(&v))
	rec := httptest.NewRecorder()
	writeAnswer(rec, &v)
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("writeAnswer:\n got %q\nwant %q", got, want)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("writeAnswer: status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	marshaled, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if want := want[:len(want)-1]; !bytes.Equal(marshaled, want) {
		t.Fatalf("MarshalJSON:\n got %q\nwant %q", marshaled, want)
	}
}

func TestAnswerEncodingMatchesEncodingJSON(t *testing.T) {
	for name, v := range map[string]answerResponse{
		"zero":    {},
		"plain":   {Answer: "Paris", Method: "ours", Model: "GPT-4", KG: "wikidata", Epoch: 3, LLMCalls: 3, PromptTokens: 812, CompletionTokens: 95, ElapsedMS: 12, PromptVersions: map[string]string{"verify": "1", "answer-graph": "2", "io": "1"}},
		"escapes": {Answer: "<a href=\"x\">&amp;</a>\\\n\t\r\b\f\x00\x1f\x7f", Method: "\u2028\u2029", Model: "bad \xff\xfe utf8 \xe2\x82", KG: "Zürich → 東京"},
		"cached":  {Answer: "x", Cached: true, PromptVersions: map[string]string{}},
		"trace": {Answer: "x", Trace: &trace.Artefacts{
			Stages: []exec.Span{
				{Stage: "pseudo_graph", Offset: 12, Latency: 12300, LLMCalls: 1, PromptTokens: 10, InputSize: 1, OutputSize: 4},
				{Stage: "verify", Latency: -1, Err: failure.Deadline},
				{Stage: "answer", Offset: math.MaxInt64, CompletionTokens: 3},
			},
			PseudoCode: "CREATE (a:X {name: 'a<b'})",
			PseudoErr:  "cypher: found \"→\"",
			Gp:         []string{"(a, b, c)"}, Gf: []string{"<x>", "y & z"},
			Kept: []trace.KeptSubject{
				{Subject: "A", Confidence: 0.923, Triples: 2},
				{Subject: "tiny", Confidence: 1e-7},
				{Subject: "huge", Confidence: 1e21},
				{Subject: "big", Confidence: -123456789.125},
			},
		}},
		"empty trace": {Trace: &trace.Artefacts{Gp: []string{}}},
	} {
		t.Run(name, func(t *testing.T) { checkEncoding(t, v) })
	}
}

// TestAnswerEncodingRefusesNonFiniteConfidence: a kept subject's
// confidence is the one float in a reply, and encoding/json refuses a
// non-finite one.
func TestAnswerEncodingRefusesNonFiniteConfidence(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := answerResponse{Trace: &trace.Artefacts{Kept: []trace.KeptSubject{{Subject: "A", Confidence: f}}}}
		if _, err := appendAnswer(nil, &v); err == nil {
			t.Errorf("confidence %v: no error", f)
		}
		rec := httptest.NewRecorder()
		writeAnswer(rec, &v)
		if rec.Body.Len() != 0 {
			t.Errorf("confidence %v: wrote %q, encoding/json writes nothing", f, rec.Body.String())
		}
	}
}

// FuzzAnswerEncoding holds the answer encoder to encoding/json on
// arbitrary strings, counts, prompt versions, trace lists, stage spans
// and kept-subject confidences:
//
//	go test -run='^$' -fuzz='^FuzzAnswerEncoding$' -fuzztime=30s ./cmd/pgakvd
func FuzzAnswerEncoding(f *testing.F) {
	f.Add("Paris", "answer-graph", "2", "(a, b, c)", uint64(3), 3, int64(12), 0.0123, uint8(0), true, false)
	f.Add("<&>\"\\\n\x00\x7f", "\u2028", "\xff", "Zürich\u2029", uint64(0), -1, int64(-5), 1e-7, uint8(2), false, true)
	f.Add("", "", "", "", uint64(math.MaxUint64), math.MinInt, int64(math.MaxInt64), 1e21, uint8(5), true, true)
	f.Fuzz(func(t *testing.T, text, key, value, item string, epoch uint64, count int, elapsed int64, confidence float64, class uint8, cached, withTrace bool) {
		if math.IsInf(confidence, 0) || math.IsNaN(confidence) {
			return // TestAnswerEncodingRefusesNonFiniteConfidence
		}
		v := answerResponse{
			Answer: text, Method: key, Model: value, KG: item,
			Epoch: epoch, LLMCalls: count, PromptTokens: -count, CompletionTokens: count / 2, ElapsedMS: elapsed,
			PromptVersions: map[string]string{key: value, item: text, "io": "1"},
			Cached:         cached,
		}
		if withTrace {
			v.Trace = &trace.Artefacts{
				Stages: []exec.Span{
					{Stage: item, Offset: time.Duration(-elapsed), Latency: time.Duration(elapsed), LLMCalls: count, PromptTokens: count, InputSize: -count, OutputSize: count, Err: failure.Class(class % uint8(failure.NumClasses))},
					{Stage: key, Latency: time.Duration(count), CompletionTokens: count},
				},
				PseudoCode: text, PseudoErr: value,
				Gp: []string{text, item}, Gg: []string{key}, Gf: strings.Fields(text),
				Kept: []trace.KeptSubject{{Subject: item, Confidence: confidence, Triples: count}, {Subject: key, Confidence: confidence / 3}},
			}
		}
		checkEncoding(t, v)
	})
}

// TestAnswerRoutesEncodeLikeEncodingJSON: the JSON reply (plain and with a
// trace), the SSE answer event and the /v1/batch body are encoding/json's
// encodings of what they decode to.
func TestAnswerRoutesEncodeLikeEncodingJSON(t *testing.T) {
	env := cachedEnv(t)
	h := testServer(t, env, testConfig(30*time.Second)).Handler()
	person := env.World.Entities[env.World.OfKind(world.KindPerson)[4]]
	item := queryItem{Question: "Where was " + person.Name + " born?"}

	// The first ask of each form fills its entry (on a fresh cache) and
	// the second hits it.
	for _, includeTrace := range []bool{false, true} {
		for ask := range 2 {
			rec := postJSON(t, h, "/v1/answer", answerRequest{queryItem: item, Method: "ours", IncludeTrace: includeTrace})
			if cache := rec.Header().Get("X-Cache"); rec.Code != http.StatusOK || (ask == 1 && cache != "hit") {
				t.Fatalf("include_trace=%v ask %d: status %d, X-Cache %q", includeTrace, ask, rec.Code, cache)
			}
			v := decode[answerResponse](t, rec)
			if includeTrace && (v.Trace == nil || len(v.Trace.Stages) == 0) {
				t.Fatal("include_trace reply without stages")
			}
			if want := referenceEncode(t, (*refAnswer)(&v)); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("include_trace=%v ask %d:\n got %q\nwant %q", includeTrace, ask, rec.Body.Bytes(), want)
			}
		}
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	resp := postSSE(t, srv.URL, answerRequest{queryItem: item, Method: "ours"})
	events := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if len(events) != 1 || events[0].name != "answer" {
		t.Fatalf("SSE: want one answer event, got %d", len(events))
	}
	var v refAnswer
	if err := json.Unmarshal(events[0].data, &v); err != nil {
		t.Fatal(err)
	}
	if want := referenceEncode(t, &v); !bytes.Equal(append(events[0].data, '\n'), want) {
		t.Fatalf("SSE answer event:\n got %q\nwant %q", events[0].data, want)
	}

	rec := postJSON(t, h, "/v1/batch", batchRequest{Method: "ours", Queries: []queryItem{item, {Question: "Where was Nobody born?"}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	var batch refBatch
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != 2 || batch.Items[0].Result == nil {
		t.Fatalf("batch reply: %s", rec.Body.String())
	}
	if want := referenceEncode(t, &batch); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("batch:\n got %q\nwant %q", rec.Body.Bytes(), want)
	}
}
