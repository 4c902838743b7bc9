package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/core/exec"
	"repro/internal/kg"
	"repro/internal/vecstore"
)

// TestCacheGetReturnsIsolatedCopy is the aliasing regression: a caller
// mutating a cached Result's trace — any graph, hit list, candidate or
// span slice, all of which the trace store now serializes — must never
// corrupt the entry other callers will receive.
func TestCacheGetReturnsIsolatedCopy(t *testing.T) {
	c := NewCache(CacheConfig{Size: 4})
	orig := answer.Result{
		Answer: "a",
		Trace: &core.Trace{
			Gp:         kg.NewGraph(kg.NewTriple("p", "r", "o")),
			Gg:         kg.NewGraph(kg.NewTriple("g", "r", "o")),
			Gf:         kg.NewGraph(kg.NewTriple("s", "r", "o")),
			Gt:         []vecstore.Hit{{Triple: kg.NewTriple("s", "r", "o"), Score: 0.5}},
			Candidates: []core.SubjectConfidence{{Subject: "c", Confidence: 0.4}},
			Kept:       []core.SubjectConfidence{{Subject: "s", Confidence: 1}},
			Stages: []exec.Span{
				{Stage: core.StagePseudo, LLMCalls: 1, Latency: time.Millisecond},
				{Stage: core.StageAnswer, LLMCalls: 1},
			},
		},
	}
	c.Put("k", "", orig)

	// Mutating the producer's copy after Put must not reach the cache.
	orig.Trace.Gp.Add(kg.NewTriple("post-put", "p", "p"))
	orig.Trace.Gg.Add(kg.NewTriple("post-put", "p", "p"))
	orig.Trace.Gf.Add(kg.NewTriple("post-put", "p", "p"))
	orig.Trace.Gt[0].Score = -1
	orig.Trace.Candidates[0].Subject = "CORRUPTED"
	orig.Trace.Kept[0].Subject = "CORRUPTED"
	orig.Trace.Stages[0].Stage = "CORRUPTED"
	orig.Trace.Stages[1].LLMCalls = 99

	first, ok := c.Get("k", "", answer.Query{})
	if !ok {
		t.Fatal("miss")
	}
	if first.Trace.Gp.Len() != 1 || first.Trace.Gg.Len() != 1 || first.Trace.Gf.Len() != 1 {
		t.Fatalf("producer graph mutation reached the cache: %+v", first.Trace)
	}
	if first.Trace.Gt[0].Score != 0.5 || first.Trace.Candidates[0].Subject != "c" || first.Trace.Kept[0].Subject != "s" {
		t.Fatalf("producer mutation reached the cache: %+v", first.Trace)
	}
	if first.Trace.Stages[0].Stage != core.StagePseudo || first.Trace.Stages[1].LLMCalls != 1 {
		t.Fatalf("producer span mutation reached the cache: %+v", first.Trace.Stages)
	}

	// Mutating one hitter's copy must not reach the next hitter.
	first.Trace.Gp.Add(kg.NewTriple("hit-poison", "p", "p"))
	first.Trace.Gg.Add(kg.NewTriple("hit-poison", "p", "p"))
	first.Trace.Gf.Add(kg.NewTriple("hit-poison", "p", "p"))
	first.Trace.Gt = append(first.Trace.Gt, vecstore.Hit{})
	first.Trace.Candidates[0].Confidence = -1
	first.Trace.Kept[0].Confidence = -1
	first.Trace.Stages[0].Latency = time.Hour
	first.Trace.Stages = append(first.Trace.Stages, exec.Span{Stage: "bogus"})

	second, ok := c.Get("k", "", answer.Query{})
	if !ok {
		t.Fatal("miss")
	}
	if second.Trace.Gp.Len() != 1 || second.Trace.Gg.Len() != 1 || second.Trace.Gf.Len() != 1 {
		t.Fatalf("hitter graph mutation reached the cache: %+v", second.Trace)
	}
	if len(second.Trace.Gt) != 1 || second.Trace.Candidates[0].Confidence != 0.4 || second.Trace.Kept[0].Confidence != 1 {
		t.Fatalf("hitter mutation reached the cache: %+v", second.Trace)
	}
	if len(second.Trace.Stages) != 2 || second.Trace.Stages[0].Latency != time.Millisecond {
		t.Fatalf("hitter span mutation reached the cache: %+v", second.Trace.Stages)
	}
}

// TestSingleflightFollowerTraceIsolated: followers joining a leader's run
// must each receive their own trace copy — a shared pointer would let any
// caller corrupt the others' results concurrently.
func TestSingleflightFollowerTraceIsolated(t *testing.T) {
	block := make(chan struct{})
	traced := answerFunc{name: "traced", fn: func(ctx context.Context, q answer.Query) (answer.Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
			return answer.Result{}, ctx.Err()
		}
		return answer.Result{
			Answer: "a",
			Trace:  &core.Trace{Gf: kg.NewGraph(kg.NewTriple("s", "r", "o"))},
		}, nil
	}}
	group := NewGroup()
	stack := Stack(traced, WithSingleflight(group, nil))
	q := answer.Query{Text: "q?"}

	const n = 4
	var wg sync.WaitGroup
	results := make([]answer.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = stack.Answer(context.Background(), q)
		}(i)
	}
	for group.Stats().Runs < 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(block)
	wg.Wait()

	if group.Stats().Shared == 0 {
		t.Skip("no followers joined; nothing to check")
	}
	seen := map[*core.Trace]bool{}
	for i, res := range results {
		if res.Trace == nil {
			t.Fatalf("caller %d lost its trace", i)
		}
		if seen[res.Trace] {
			t.Fatal("two callers share one trace pointer")
		}
		seen[res.Trace] = true
		res.Trace.Gf.Add(kg.NewTriple("poison", "p", "p"))
	}
	for i, res := range results {
		if res.Trace.Gf.Len() != 2 {
			t.Fatalf("caller %d's trace was mutated by another caller: %d triples", i, res.Trace.Gf.Len())
		}
	}
}

// TestDynamicScopeInvalidates: bumping the value a ScopeFunc returns (the
// substrate epoch) must make previously-cached answers unreachable — the
// hot-swap cache-invalidation guarantee.
func TestDynamicScopeInvalidates(t *testing.T) {
	var epoch atomic.Uint64
	epoch.Store(1)
	scope := func() string { return "m/kg@" + string(rune('0'+epoch.Load())) }

	stub := &stubAnswerer{name: "stub"}
	cache := NewCache(CacheConfig{Size: 8})
	stack := Stack(stub, WithCache(cache, scope))
	q := answer.Query{Text: "who is X?"}

	if _, err := stack.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	ctx, info := Attach(context.Background())
	if _, err := stack.Answer(ctx, q); err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Fatal("same scope should hit")
	}

	epoch.Store(2) // the swap
	ctx2, info2 := Attach(context.Background())
	if _, err := stack.Answer(ctx2, q); err != nil {
		t.Fatal(err)
	}
	if info2.CacheHit {
		t.Fatal("stale entry served across an epoch bump")
	}
	if stub.runs.Load() != 2 {
		t.Fatalf("underlying runs = %d, want 2 (one per epoch)", stub.runs.Load())
	}
}
