package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/answer"
)

func TestCacheNilAndDisabled(t *testing.T) {
	if c := NewCache(CacheConfig{Size: 0}); c != nil {
		t.Fatal("size 0 should disable the cache")
	}
	var c *Cache
	if _, ok := c.Get("k", "", answer.Query{}); ok {
		t.Fatal("nil cache must miss")
	}
	c.Put("k", "", answer.Result{}) // must not panic
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(CacheConfig{Size: 2})
	c.Put("a", "", answer.Result{Answer: "A"})
	c.Put("b", "", answer.Result{Answer: "B"})
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a", "", answer.Query{}); !ok {
		t.Fatal("a should be cached")
	}
	c.Put("c", "", answer.Result{Answer: "C"})
	if _, ok := c.Get("b", "", answer.Query{}); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k, "", answer.Query{}); !ok {
			t.Fatalf("%s should survive", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Size != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache(CacheConfig{Size: 4, TTL: time.Minute})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	c.Put("k", "", answer.Result{Answer: "v"})
	if _, ok := c.Get("k", "", answer.Query{}); !ok {
		t.Fatal("fresh entry should hit")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("k", "", answer.Query{}); ok {
		t.Fatal("expired entry should miss")
	}
	if s := c.Stats(); s.Expirations != 1 || s.Size != 0 {
		t.Fatalf("stats %+v", s)
	}
	// Re-put refreshes the TTL.
	c.Put("k", "", answer.Result{Answer: "v2"})
	now = now.Add(30 * time.Second)
	if res, ok := c.Get("k", "", answer.Query{}); !ok || res.Answer != "v2" {
		t.Fatalf("refreshed entry: ok=%v res=%+v", ok, res)
	}
}

func TestCacheMiddlewareHitAndMiss(t *testing.T) {
	stub := &stubAnswerer{name: "stub"}
	cache := NewCache(CacheConfig{Size: 8})
	stack := Stack(stub, WithCache(cache, nil))
	q := answer.Query{Text: "Where was X born?"}

	ctx, info := Attach(context.Background())
	res1, err := stack.Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheHit || !info.CacheUsed {
		t.Fatalf("first call: info %+v", info)
	}

	ctx, info = Attach(context.Background())
	res2, err := stack.Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Fatal("second identical call should hit")
	}
	if res2.Answer != res1.Answer {
		t.Fatalf("cached answer %q != original %q", res2.Answer, res1.Answer)
	}
	if stub.runs.Load() != 1 {
		t.Fatalf("underlying runs = %d, want 1", stub.runs.Load())
	}

	// Normalisation: case and whitespace variants share the entry.
	ctx, info = Attach(context.Background())
	if _, err := stack.Answer(ctx, answer.Query{Text: "  where was  x BORN? "}); err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Fatal("normalised variant should hit")
	}

	// A different question misses.
	ctx, info = Attach(context.Background())
	if _, err := stack.Answer(ctx, answer.Query{Text: "Where was Y born?"}); err != nil {
		t.Fatal(err)
	}
	if info.CacheHit {
		t.Fatal("different question should miss")
	}
	if stub.runs.Load() != 2 {
		t.Fatalf("underlying runs = %d, want 2", stub.runs.Load())
	}
}

func TestCacheMiddlewareDoesNotCacheErrors(t *testing.T) {
	stub := &stubAnswerer{name: "stub", err: errors.New("boom")}
	cache := NewCache(CacheConfig{Size: 8})
	stack := Stack(stub, WithCache(cache, nil))
	q := answer.Query{Text: "q?"}
	for i := 0; i < 3; i++ {
		if _, err := stack.Answer(context.Background(), q); err == nil {
			t.Fatal("want error")
		}
	}
	if stub.runs.Load() != 3 {
		t.Fatalf("errors must not be cached: runs = %d", stub.runs.Load())
	}
	if cache.Len() != 0 {
		t.Fatalf("cache should stay empty, has %d", cache.Len())
	}
}

func TestQueryKeyDistinguishesSemantics(t *testing.T) {
	base := answer.Query{Text: "q?", Anchors: []string{"B", "A"}}
	key := answer.QueryKey("ours", "m", base)
	if key != answer.QueryKey("OURS", "m", answer.Query{Text: " q? ", Anchors: []string{"a", "b"}}) {
		t.Error("case/space/anchor-order variants should share a key")
	}
	open := base
	open.Open = true
	if key == answer.QueryKey("ours", "m", open) {
		t.Error("open flag must change the key")
	}
	k := 5
	overridden := base
	overridden.Overrides.TopK = &k
	if key == answer.QueryKey("ours", "m", overridden) {
		t.Error("overrides must change the key")
	}
	if key == answer.QueryKey("ours", "other-model", base) {
		t.Error("model must change the key")
	}
	if key == answer.QueryKey("cot", "m", base) {
		t.Error("method must change the key")
	}
}

// TestQueryKeySeparatorInjection: client-controlled text must not be able
// to embed the key format's field separators and collide with a
// semantically different query.
func TestQueryKeySeparatorInjection(t *testing.T) {
	// "q\x00o" must not mimic {Text: "q", Open: true}'s field layout.
	smuggled := answer.QueryKey("m", "", answer.Query{Text: "q\x00o"})
	open := answer.QueryKey("m", "", answer.Query{Text: "q", Open: true})
	if smuggled == open {
		t.Error("NUL in text forged the open-flag field")
	}
	// "a\x01b" as one anchor must not equal anchors ["a", "b"].
	oneAnchor := answer.QueryKey("m", "", answer.Query{Text: "q", Anchors: []string{"a\x01b"}})
	twoAnchors := answer.QueryKey("m", "", answer.Query{Text: "q", Anchors: []string{"a", "b"}})
	if oneAnchor == twoAnchors {
		t.Error("\\x01 in an anchor forged the anchor-list separator")
	}
}

// TestCacheHitZeroesUsage: hits must not replay the cold run's LLM cost
// or elapsed time — clients summing usage over responses would
// double-count otherwise.
func TestCacheHitZeroesUsage(t *testing.T) {
	stub := &stubAnswerer{name: "stub", delay: 5 * time.Millisecond}
	stack := Stack(stub, WithCache(NewCache(CacheConfig{Size: 4}), nil))
	q := answer.Query{Text: "q?"}

	cold, err := stack.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.LLMCalls == 0 {
		t.Fatalf("cold run should report real usage: %+v", cold)
	}
	warm, err := stack.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.LLMCalls != 0 || warm.PromptTokens != 0 || warm.CompletionTokens != 0 {
		t.Fatalf("hit replayed usage: %+v", warm)
	}
	if warm.Elapsed >= cold.Elapsed {
		t.Fatalf("hit elapsed %v should be below the cold run's %v", warm.Elapsed, cold.Elapsed)
	}
	if warm.Answer != cold.Answer {
		t.Fatalf("hit answer %q != cold %q", warm.Answer, cold.Answer)
	}
}
