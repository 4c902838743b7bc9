package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/core/exec"
	"repro/internal/kg"
	"repro/internal/trace"
)

// fullTrace is a fresh result with every kind of trace content.
func fullTrace() answer.Result {
	return answer.Result{
		Answer: "a", Method: "stub", LLMCalls: 3,
		PromptVersions: map[string]string{"answer-graph": "1"},
		Trace: &core.Trace{
			Gp:     kg.NewGraph(kg.NewTriple("p", "r", "o")),
			Gf:     kg.NewGraph(kg.NewTriple("s", "r", "o")),
			Stages: []exec.Span{{Stage: core.StagePseudo, LLMCalls: 1}, {Stage: core.StageAnswer, LLMCalls: 1}},
		},
	}
}

// ask sends q through stack under an Info with the given OmitTrace.
func ask(t *testing.T, stack answer.Answerer, q answer.Query, omitTrace bool) (answer.Result, Info) {
	t.Helper()
	ctx, info := Attach(context.Background())
	info.OmitTrace = omitTrace
	res, err := stack.Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	return res, *info
}

// TestOmitTraceEntriesAreSeparateAndSlim: a request that will not read the
// trace fills and hits a trace-less entry; a trace reader never meets it —
// its first ask is a miss that fills a full entry — and from then on both
// forms hit their own. The miss that fills a slim entry still returns the
// run's trace (the metrics layer reads its spans).
func TestOmitTraceEntriesAreSeparateAndSlim(t *testing.T) {
	runs := 0
	stub := answerFunc{name: "stub", fn: func(context.Context, answer.Query) (answer.Result, error) {
		runs++
		return fullTrace(), nil
	}}
	cache := NewCache(CacheConfig{Size: 8})
	stack := Stack(stub, WithCache(cache, nil))
	q := answer.Query{Text: "q?"}

	res, info := ask(t, stack, q, true)
	if info.CacheHit || res.Trace == nil || len(res.Trace.Stages) != 2 {
		t.Fatalf("slim fill: hit=%v trace=%+v; the run's own result must keep its trace", info.CacheHit, res.Trace)
	}
	res, info = ask(t, stack, q, true)
	if !info.CacheHit || res.Trace != nil {
		t.Fatalf("slim hit: hit=%v trace=%+v; want a hit without a trace", info.CacheHit, res.Trace)
	}
	if res.Answer != "a" || res.PromptVersions["answer-graph"] != "1" || res.LLMCalls != 0 {
		t.Fatalf("slim hit lost or replayed fields: %+v", res)
	}

	res, info = ask(t, stack, q, false)
	if info.CacheHit || runs != 2 {
		t.Fatalf("a trace reader met the trace-less entry: hit=%v runs=%d", info.CacheHit, runs)
	}
	res, info = ask(t, stack, q, false)
	if !info.CacheHit || res.Trace == nil || res.Trace.Gp.Len() != 1 || res.Trace.Gf.Len() != 1 || len(res.Trace.Stages) != 2 {
		t.Fatalf("full hit: hit=%v trace=%+v", info.CacheHit, res.Trace)
	}
	if _, info = ask(t, stack, q, true); !info.CacheHit {
		t.Fatal("the slim entry did not survive the full fill")
	}
	if runs != 2 || cache.Len() != 2 {
		t.Fatalf("runs=%d entries=%d, want 2 and 2 (one per form)", runs, cache.Len())
	}

	// No Info at all is a library caller: today's behaviour, full entry.
	res, err := stack.Answer(context.Background(), q)
	if err != nil || res.Trace == nil || runs != 2 {
		t.Fatalf("caller without Info: err=%v trace=%v runs=%d; want the full entry", err, res.Trace, runs)
	}
}

// TestWithTraceClearsOmitTrace: a trace store's records carry the graphs,
// so below WithTrace every request is a trace reader — hit records keep
// Gp/Gf and stages even when the front door asked to omit the trace.
func TestWithTraceClearsOmitTrace(t *testing.T) {
	store := newStore(t)
	stub := answerFunc{name: "stub", fn: func(context.Context, answer.Query) (answer.Result, error) {
		return fullTrace(), nil
	}}
	stack := Stack(stub, WithTrace(store, "wikidata"), WithCache(NewCache(CacheConfig{Size: 8}), nil))
	q := answer.Query{Text: "q?"}
	ask(t, stack, q, true)
	res, info := ask(t, stack, q, true)
	if !info.CacheHit || info.OmitTrace || res.Trace == nil {
		t.Fatalf("hit under a trace store: hit=%v omit=%v trace=%v", info.CacheHit, info.OmitTrace, res.Trace)
	}
	recs, _ := store.List(trace.ListOptions{})
	if len(recs) != 2 || !recs[0].CacheHit {
		t.Fatalf("want a miss record then a hit record, got %+v", recs)
	}
	for i, rec := range recs {
		if len(rec.Gp) != 1 || len(rec.Gf) != 1 || len(rec.Stages) != 2 {
			t.Fatalf("record %d lost its trace: gp=%v gf=%v stages=%v", i, rec.Gp, rec.Gf, rec.Stages)
		}
	}
}

// TestSingleflightFollowerOmitsTrace: a follower that will not read the
// trace gets the leader's answer without one; a follower that will gets
// its own copy; the leader keeps its own whichever it asked for.
func TestSingleflightFollowerOmitsTrace(t *testing.T) {
	block := make(chan struct{})
	stub := answerFunc{name: "stub", fn: func(ctx context.Context, q answer.Query) (answer.Result, error) {
		<-block
		return fullTrace(), nil
	}}
	group := NewGroup()
	stack := Stack(stub, WithSingleflight(group, nil))
	q := answer.Query{Text: "q?"}

	type outcome struct {
		res  answer.Result
		info Info
	}
	run := func(omit bool, out *outcome, wg *sync.WaitGroup) {
		defer wg.Done()
		ctx, info := Attach(context.Background())
		info.OmitTrace = omit
		out.res, _ = stack.Answer(ctx, q)
		out.info = *info
	}
	var wg sync.WaitGroup
	var leader, slim, full outcome
	wg.Add(1)
	go run(true, &leader, &wg)
	for group.Stats().Runs < 1 {
		time.Sleep(time.Millisecond)
	}
	wg.Add(2)
	go run(true, &slim, &wg)
	go run(false, &full, &wg)
	// Followers count as shared only once the flight ends; give them time
	// to reach the wait before releasing the leader.
	time.Sleep(20 * time.Millisecond)
	close(block)
	wg.Wait()

	if leader.info.Shared || leader.res.Trace == nil {
		t.Fatalf("leader: shared=%v trace=%v", leader.info.Shared, leader.res.Trace)
	}
	if !slim.info.Shared || !full.info.Shared {
		t.Skip("a follower arrived after the flight ended; nothing to check")
	}
	if slim.res.Trace != nil || slim.res.Answer != "a" {
		t.Fatalf("trace-less follower: %+v", slim.res)
	}
	if full.res.Trace == nil || full.res.Trace == leader.res.Trace || full.res.Trace.Gf.Len() != 1 {
		t.Fatalf("trace-reading follower must get its own copy: %+v (leader %p)", full.res.Trace, leader.res.Trace)
	}
}
