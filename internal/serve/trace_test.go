package serve

import (
	"context"
	"errors"
	"testing"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/core/exec"
	"repro/internal/failure"
	"repro/internal/kg"
	"repro/internal/trace"
)

// tracedStub answers with a fixed result carrying a full trace.
type tracedStub struct {
	res answer.Result
	err error
}

func (s *tracedStub) Name() string { return "stub" }
func (s *tracedStub) Answer(ctx context.Context, q answer.Query) (answer.Result, error) {
	return s.res, s.err
}

// newStore opens a trace store in the test's temporary directory.
func newStore(t *testing.T) *trace.FileStore {
	t.Helper()
	store, err := trace.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

func TestWithTraceRecordsSuccess(t *testing.T) {
	store := newStore(t)
	stub := &tracedStub{res: answer.Result{
		Answer: "Beijing", Method: "ours", Model: "GPT-4", Epoch: 5,
		LLMCalls: 2, PromptTokens: 10, CompletionTokens: 4,
		Trace: &core.Trace{
			Gf:     kg.NewGraph(kg.NewTriple("China", "capital", "Beijing")),
			Stages: []exec.Span{{Stage: core.StageAnswer, LLMCalls: 1}},
		},
	}}
	stack := Stack(stub, WithTrace(store, "wikidata"))
	if _, err := stack.Answer(context.Background(), answer.Query{Text: "capital of China?"}); err != nil {
		t.Fatal(err)
	}
	recs, err := store.List(trace.ListOptions{})
	if err != nil || len(recs) != 1 {
		t.Fatalf("want 1 record, got %d (%v)", len(recs), err)
	}
	rec := recs[0]
	if rec.ID == "" || rec.Time == "" {
		t.Fatalf("record not stamped: %+v", rec)
	}
	if rec.Question != "capital of China?" || rec.Method != "ours" || rec.KG != "wikidata" {
		t.Fatalf("identity wrong: %+v", rec)
	}
	if rec.Epoch != 5 || rec.CacheHit || rec.LLMCalls != 2 {
		t.Fatalf("epoch/usage wrong: %+v", rec)
	}
	if len(rec.Stages) != 1 || len(rec.Gf) != 1 {
		t.Fatalf("trace artefacts missing: %+v", rec)
	}
}

func TestWithTraceRecordsFailure(t *testing.T) {
	store := newStore(t)
	stub := &tracedStub{
		res: answer.Result{Method: "cot", Trace: &core.Trace{Stages: []exec.Span{{Stage: "sample", Err: failure.Upstream}}}},
		err: errors.New("llm exploded"),
	}
	stack := Stack(stub, WithTrace(store, "freebase"))
	if _, err := stack.Answer(context.Background(), answer.Query{Text: "q?"}); err == nil {
		t.Fatal("stub error should propagate")
	}
	recs, _ := store.List(trace.ListOptions{})
	if len(recs) != 1 {
		t.Fatalf("failed runs must be recorded too, got %d", len(recs))
	}
	if recs[0].Error == "" || recs[0].ErrorClass != failure.Upstream {
		t.Fatalf("error not captured: %+v", recs[0])
	}
	if len(recs[0].Stages) != 1 {
		t.Fatalf("partial spans lost: %+v", recs[0])
	}
}

// TestWithTraceCapturesCacheHit: the tracing layer sits outside the cache,
// so a hit's record must carry CacheHit=true — replay needs it to exclude
// zero-usage hits from cost comparisons.
func TestWithTraceCapturesCacheHit(t *testing.T) {
	store := newStore(t)
	stub := &tracedStub{res: answer.Result{Answer: "a", Method: "ours", LLMCalls: 3}}
	cache := NewCache(CacheConfig{Size: 8})
	stack := Stack(stub, WithTrace(store, "wikidata"), WithCache(cache, nil))

	q := answer.Query{Text: "repeat me"}
	if _, err := stack.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, err := stack.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	recs, _ := store.List(trace.ListOptions{})
	if len(recs) != 2 {
		t.Fatalf("want 2 records, got %d", len(recs))
	}
	// Newest first: the second request hit.
	if !recs[0].CacheHit || recs[0].LLMCalls != 0 {
		t.Fatalf("hit record wrong: %+v", recs[0])
	}
	if recs[1].CacheHit {
		t.Fatalf("miss record wrong: %+v", recs[1])
	}
}

func TestWithTraceNilRecorderIsNoop(t *testing.T) {
	stub := &tracedStub{res: answer.Result{Answer: "a"}}
	stack := Stack(stub, WithTrace(nil, "wikidata"))
	if stack != stub {
		t.Fatal("nil store should return the inner answerer unchanged")
	}
}

// TestWithTraceSwallowsAppendFailure: a broken store (here a closed one,
// which refuses every append) must never fail the request.
func TestWithTraceSwallowsAppendFailure(t *testing.T) {
	store := newStore(t)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	stub := &tracedStub{res: answer.Result{Answer: "a"}}
	stack := Stack(stub, WithTrace(store, "wikidata"))
	res, err := stack.Answer(context.Background(), answer.Query{Text: "q"})
	if err != nil || res.Answer != "a" {
		t.Fatalf("append failure leaked into the request: %v", err)
	}
}
