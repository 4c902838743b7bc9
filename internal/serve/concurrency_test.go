package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/answer"
)

// TestCacheConcurrentHammer drives the cache from 32 goroutines mixing
// gets, puts and stats over an overlapping key space; run with -race.
func TestCacheConcurrentHammer(t *testing.T) {
	cache := NewCache(CacheConfig{Size: 64})
	const goroutines = 32
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("key-%d", (g*iters+i)%100)
				if res, ok := cache.Get(key, "", answer.Query{}); ok {
					if res.Answer == "" {
						t.Errorf("hit with empty result for %s", key)
						return
					}
				} else {
					cache.Put(key, "", answer.Result{Answer: "v:" + key})
				}
				if i%50 == 0 {
					_ = cache.Stats()
					_ = cache.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := cache.Len(); got > 64 {
		t.Fatalf("cache grew past capacity: %d", got)
	}
	s := cache.Stats()
	if s.Hits+s.Misses != goroutines*iters {
		t.Fatalf("hits %d + misses %d != %d lookups", s.Hits, s.Misses, goroutines*iters)
	}
}

// TestFullStackConcurrentHammer drives the complete metrics + cache +
// singleflight stack from 32 goroutines over a small query space; run with
// -race. Every caller must get the right answer for its own query.
func TestFullStackConcurrentHammer(t *testing.T) {
	stub := &stubAnswerer{name: "stub"}
	collector := NewCollector()
	cache := NewCache(CacheConfig{Size: 16})
	group := NewGroup()
	stack := Stack(stub, WithMetrics(collector), WithCache(cache, nil), WithSingleflight(group, nil))

	const goroutines = 32
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				text := fmt.Sprintf("question %d?", (g+i)%8)
				ctx, _ := Attach(context.Background())
				res, err := stack.Answer(ctx, answer.Query{Text: text})
				if err != nil {
					t.Error(err)
					return
				}
				if want := "answer to " + text; res.Answer != want {
					t.Errorf("got %q want %q", res.Answer, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	snaps := collector.Snapshot()
	if len(snaps) != 1 || snaps[0].Count != goroutines*iters {
		t.Fatalf("metrics count = %+v, want %d requests", snaps, goroutines*iters)
	}
	// With 8 distinct queries and a 16-entry cache, the underlying method
	// runs only a handful of times (first miss per query, possibly a few
	// singleflight leaders racing the first fill).
	if runs := stub.runs.Load(); runs > 8*4 {
		t.Fatalf("underlying runs = %d — cache/singleflight not deduplicating", runs)
	}
}
