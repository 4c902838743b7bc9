// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation as testing.B benchmarks, plus ablation benches for the
// pipeline's design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the reproduced scores via b.ReportMetric, so the
// bench output doubles as a compact experiment log. The environment is the
// test-scale one; cmd/benchrun runs the paper-scale version.
package repro_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/answer"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/qa"
	"repro/internal/serve"
	"repro/internal/vecstore"
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

// runCell evaluates one (method, model, dataset) cell once per iteration
// and reports the score as a metric.
func runCell(b *testing.B, method, model string, ds *qa.Dataset, src kg.Source) {
	b.Helper()
	env := sharedEnv(b)
	var score float64
	for i := 0; i < b.N; i++ {
		cell, err := env.Run(context.Background(), method, model, ds, src)
		if err != nil {
			b.Fatal(err)
		}
		score = cell.Score
	}
	b.ReportMetric(score, "score")
	b.ReportMetric(float64(len(ds.Questions)), "questions")
}

// BenchmarkTable1CapabilityMatrix regenerates the qualitative Table I.
func BenchmarkTable1CapabilityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard)
	}
}

// BenchmarkFig2PseudoGraphAccuracy regenerates the §III-A structural
// validity figures (Cypher ≈98 % vs direct ≈75 %).
func BenchmarkFig2PseudoGraphAccuracy(b *testing.B) {
	env := sharedEnv(b)
	var res bench.Fig2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.Fig2(context.Background(), env, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CypherValid, "cypher-valid-%")
	b.ReportMetric(res.DirectValid, "direct-valid-%")
}

// BenchmarkTable2MainResults regenerates every Table II cell. Sub-benchmarks
// are named Model/Method/Dataset.
func BenchmarkTable2MainResults(b *testing.B) {
	env := sharedEnv(b)
	for _, model := range []string{bench.ModelGPT35, bench.ModelGPT4} {
		for _, method := range []string{bench.MethodToG, bench.MethodIO, bench.MethodCoT, bench.MethodSC, bench.MethodRAG, bench.MethodOurs} {
			for _, ds := range env.Suite.Datasets() {
				if method == bench.MethodToG && ds.Name == "NatureQuestions" {
					continue
				}
				name := fmt.Sprintf("%s/%s/%s", model, method, ds.Name)
				dsLocal := ds
				b.Run(name, func(b *testing.B) {
					runCell(b, method, model, dsLocal, bench.DefaultSource(dsLocal.Name))
				})
			}
		}
	}
}

// BenchmarkTable3MultiSource regenerates the KG-source generalisation rows:
// GPT-3.5 PG&AKV over each KG schema on SimpleQuestions and NatureQuestions.
func BenchmarkTable3MultiSource(b *testing.B) {
	env := sharedEnv(b)
	for _, src := range []kg.Source{kg.SourceFreebase, kg.SourceWikidata} {
		for _, ds := range []*qa.Dataset{env.Suite.Simple, env.Suite.Nature} {
			name := fmt.Sprintf("Ours-%s/%s", src, ds.Name)
			dsLocal, srcLocal := ds, src
			b.Run(name, func(b *testing.B) {
				runCell(b, bench.MethodOurs, bench.ModelGPT35, dsLocal, srcLocal)
			})
		}
	}
}

// BenchmarkTable4AblationGPT35 regenerates the GPT-3.5 reference ablation.
func BenchmarkTable4AblationGPT35(b *testing.B) {
	benchAblation(b, bench.ModelGPT35)
}

// BenchmarkTable5AblationGPT4 regenerates the GPT-4 reference ablation.
func BenchmarkTable5AblationGPT4(b *testing.B) {
	benchAblation(b, bench.ModelGPT4)
}

func benchAblation(b *testing.B, model string) {
	env := sharedEnv(b)
	for _, row := range []struct{ label, method string }{
		{"CoT", bench.MethodCoT},
		{"withGp", bench.MethodOursGp},
		{"withGf", bench.MethodOurs},
	} {
		for _, ds := range []*qa.Dataset{env.Suite.QALD, env.Suite.Nature} {
			dsLocal, rowLocal := ds, row
			b.Run(fmt.Sprintf("%s/%s", rowLocal.label, dsLocal.Name), func(b *testing.B) {
				runCell(b, rowLocal.method, model, dsLocal, bench.DefaultSource(dsLocal.Name))
			})
		}
	}
}

// --- Ablations beyond the paper's tables ---

// BenchmarkAblationConfidenceThreshold sweeps the pruning threshold around
// the paper's 0.7 on QALD with the full pipeline.
func BenchmarkAblationConfidenceThreshold(b *testing.B) {
	env := sharedEnv(b)
	for _, th := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		th := th
		b.Run(fmt.Sprintf("threshold=%.1f", th), func(b *testing.B) {
			cfg := bench.QuickEnvConfig()
			cfg.Core.ConfidenceThreshold = th
			swept, err := bench.NewEnv(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var score float64
			for i := 0; i < b.N; i++ {
				cell, err := swept.Run(context.Background(), bench.MethodOurs, bench.ModelGPT35,
					env.Suite.QALD, kg.SourceWikidata)
				if err != nil {
					b.Fatal(err)
				}
				score = cell.Score
			}
			b.ReportMetric(score, "score")
		})
	}
}

// BenchmarkAblationTopK sweeps the per-triple retrieval depth around the
// paper's 10.
func BenchmarkAblationTopK(b *testing.B) {
	env := sharedEnv(b)
	for _, k := range []int{3, 5, 10, 20} {
		k := k
		b.Run(fmt.Sprintf("topk=%d", k), func(b *testing.B) {
			cfg := bench.QuickEnvConfig()
			cfg.Core.TopK = k
			swept, err := bench.NewEnv(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var score float64
			for i := 0; i < b.N; i++ {
				cell, err := swept.Run(context.Background(), bench.MethodOurs, bench.ModelGPT35,
					env.Suite.Simple, kg.SourceFreebase)
				if err != nil {
					b.Fatal(err)
				}
				score = cell.Score
			}
			b.ReportMetric(score, "score")
		})
	}
}

// --- Microbenchmarks of the substrates (throughput numbers) ---

// BenchmarkPipelineSingleQuestion measures one full PG&AKV run.
func BenchmarkPipelineSingleQuestion(b *testing.B) {
	env := sharedEnv(b)
	p, err := env.Pipeline(bench.ModelGPT35, kg.SourceWikidata)
	if err != nil {
		b.Fatal(err)
	}
	q := env.Suite.QALD.Questions[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Answer(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVectorSearch measures semantic-query throughput over the KG.
func BenchmarkVectorSearch(b *testing.B) {
	env := sharedEnv(b)
	idx := env.Substrates[kg.SourceWikidata].Current().Index
	query := env.Suite.Simple.Questions[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(query, 10)
	}
}

// BenchmarkShardedVsSingleSearch measures the substrate's headline perf
// win: a 50k-triple index scanned as one segment versus fixed-size shards
// searched concurrently and merged by score. Both sub-benchmarks run the
// same exact (full-scan) search with a pre-encoded query, so the delta is
// purely the parallel fan-out.
func BenchmarkShardedVsSingleSearch(b *testing.B) {
	enc := embed.NewEncoder()
	const n = 50000
	triples := make([]kg.Triple, n)
	for i := range triples {
		triples[i] = kg.Triple{
			Subject:  fmt.Sprintf("entity %d of cluster %d", i, i%97),
			Relation: []string{"population", "area", "country", "elevation"}[i%4],
			Object:   fmt.Sprintf("%d", 1000+i),
		}
	}
	single := vecstore.BuildTriples(enc, triples)
	sharded := vecstore.BuildSharded(enc, triples, vecstore.DefaultShardSize)
	qv := enc.Encode("entity 4242 of cluster 13 population")

	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if hits := single.SearchVector(qv, 10); len(hits) != 10 {
				b.Fatalf("got %d hits", len(hits))
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		b.ReportMetric(float64(sharded.Shards()), "shards")
		for i := 0; i < b.N; i++ {
			if hits := sharded.SearchVector(qv, 10); len(hits) != 10 {
				b.Fatalf("got %d hits", len(hits))
			}
		}
	})
}

// BenchmarkCypherDecode measures pseudo-graph decode throughput.
func BenchmarkCypherDecode(b *testing.B) {
	env := sharedEnv(b)
	p, err := env.Pipeline(bench.ModelGPT35, kg.SourceWikidata)
	if err != nil {
		b.Fatal(err)
	}
	var tr core.Trace
	if _, err := p.GeneratePseudoGraph(context.Background(), env.Suite.QALD.Questions[0].Text, &tr); err != nil {
		b.Fatal(err)
	}
	code := tr.PseudoCode
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.GeneratePseudoGraph(context.Background(), env.Suite.QALD.Questions[0].Text, nil); err != nil {
			b.Fatal(err)
		}
	}
	_ = code
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

// BenchmarkAblationPruneStrategy compares the paper's two-step pruning
// against count-only and no pruning on QALD.
func BenchmarkAblationPruneStrategy(b *testing.B) {
	env := sharedEnv(b)
	for _, strat := range []core.PruneStrategy{core.PruneTwoStep, core.PruneCountOnly, core.PruneNone} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			cfg := bench.QuickEnvConfig()
			cfg.Core.Prune = strat
			swept, err := bench.NewEnv(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var score float64
			for i := 0; i < b.N; i++ {
				cell, err := swept.Run(context.Background(), bench.MethodOurs, bench.ModelGPT35,
					env.Suite.QALD, kg.SourceWikidata)
				if err != nil {
					b.Fatal(err)
				}
				score = cell.Score
			}
			b.ReportMetric(score, "score")
		})
	}
}

// BenchmarkAblationContextOrder compares confidence-ordered gold-graph
// placement (the paper's choice) against a shuffled order on QALD.
func BenchmarkAblationContextOrder(b *testing.B) {
	env := sharedEnv(b)
	for _, shuffled := range []bool{false, true} {
		shuffled := shuffled
		name := "confidence-sorted"
		if shuffled {
			name = "shuffled"
		}
		b.Run(name, func(b *testing.B) {
			cfg := bench.QuickEnvConfig()
			cfg.Core.ShuffleGoldOrder = shuffled
			swept, err := bench.NewEnv(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var score float64
			for i := 0; i < b.N; i++ {
				cell, err := swept.Run(context.Background(), bench.MethodOurs, bench.ModelGPT35,
					env.Suite.QALD, kg.SourceWikidata)
				if err != nil {
					b.Fatal(err)
				}
				score = cell.Score
			}
			b.ReportMetric(score, "score")
		})
	}
}
