// Package repro's root benchmarks time the method and its substrates
// through the same surfaces production callers use: one PG&AKV run
// through the answer registry, a pseudo-graph decode, and the serving
// stack's answer cache cold and warm. (The vector search's cost is pinned
// by internal/vecstore's TestBatchSearchAllocations, and its benchmarks
// live there.) Run with:
//
//	go test -run=^$ -bench=. -benchmem
//
// The paper's tables and figures are regenerated by cmd/benchrun
// -experiment, not here.
package repro_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/answer"
	"repro/internal/bench"
	"repro/internal/cypher"
	"repro/internal/kg"
	"repro/internal/serve"
)

var (
	envOnce sync.Once
	envVal  *bench.Env
	envErr  error
)

func sharedEnv(b *testing.B) *bench.Env {
	b.Helper()
	envOnce.Do(func() {
		envVal, envErr = bench.NewEnv(bench.QuickEnvConfig())
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

// --- Microbenchmarks of the substrates (throughput numbers) ---

// BenchmarkPipelineSingleQuestion measures one full PG&AKV run through
// the answer registry (the node's cache is off, so every run is real).
func BenchmarkPipelineSingleQuestion(b *testing.B) {
	env := sharedEnv(b)
	ans, err := env.Answerer(bench.MethodOurs, bench.ModelGPT35, kg.SourceWikidata)
	if err != nil {
		b.Fatal(err)
	}
	q := answer.Query{Text: env.Suite.QALD.Questions[0].Text}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ans.Answer(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCypherDecode measures pseudo-graph decode throughput: the
// Cypher program one registry run's pseudo-graph stage extracted, decoded
// into triples.
func BenchmarkCypherDecode(b *testing.B) {
	env := sharedEnv(b)
	ans, err := env.Answerer(bench.MethodOurs, bench.ModelGPT35, kg.SourceWikidata)
	if err != nil {
		b.Fatal(err)
	}
	res, err := ans.Answer(context.Background(), answer.Query{Text: env.Suite.QALD.Questions[0].Text})
	if err != nil {
		b.Fatal(err)
	}
	code := res.Trace.PseudoCode
	if g, err := cypher.Decode(code); err != nil || g.Len() == 0 {
		b.Fatalf("the run's pseudo-graph code does not decode to triples (err %v):\n%s", err, code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cypher.Decode(code); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving-path benchmarks (internal/serve) ---

// BenchmarkServeCacheColdVsWarm measures the serving stack's answer cache:
// the cold sub-benchmark re-runs the full pipeline every iteration, the
// warm one is primed once and then answers from the LRU.
func BenchmarkServeCacheColdVsWarm(b *testing.B) {
	env := sharedEnv(b)
	base, err := env.Answerer(bench.MethodOurs, bench.ModelGPT35, kg.SourceWikidata)
	if err != nil {
		b.Fatal(err)
	}
	q := answer.Query{Text: env.Suite.QALD.Questions[0].Text}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := base.Answer(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := serve.NewCache(serve.CacheConfig{Size: 64, TTL: time.Hour})
		stack := serve.Stack(base, serve.WithCache(cache, serve.StaticScope("bench")))
		if _, err := stack.Answer(context.Background(), q); err != nil {
			b.Fatal(err) // prime
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stack.Answer(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := cache.Stats(); s.Hits < int64(b.N) {
			b.Fatalf("warm path missed the cache: %+v", s)
		}
	})
}
