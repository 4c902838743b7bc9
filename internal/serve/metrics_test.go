package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/answer"
	"repro/internal/core/exec"
	"repro/internal/failure"
	"repro/internal/metrics"
)

func TestCollectorRecordAndSnapshot(t *testing.T) {
	c := NewCollector()
	usage := answer.Result{LLMCalls: 3, PromptTokens: 100, CompletionTokens: 10}
	c.Record("ours", 4*time.Millisecond, nil, usage, Info{})
	c.Record("ours", 40*time.Millisecond, nil, usage, Info{})
	c.Record("ours", 2*time.Millisecond, context.Canceled, answer.Result{}, Info{})
	c.Record("ours", time.Millisecond/2, nil, answer.Result{}, Info{CacheHit: true})
	c.Record("cot", 8*time.Millisecond, &answer.InvalidQueryError{Reason: "empty"}, answer.Result{}, Info{})

	snaps := c.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("methods = %d, want 2", len(snaps))
	}
	// Sorted by name: cot first.
	cot, ours := snaps[0], snaps[1]
	if cot.Method != "cot" || ours.Method != "ours" {
		t.Fatalf("order %q %q", cot.Method, ours.Method)
	}
	if ours.Count != 4 || ours.Errors != 1 || ours.CacheHits != 1 {
		t.Errorf("ours %+v", ours)
	}
	if ours.ErrorsByClass[failure.Canceled.String()] != 1 {
		t.Errorf("ours errors by class %v", ours.ErrorsByClass)
	}
	if ours.LLMCalls != 6 || ours.PromptTokens != 200 || ours.CompletionTokens != 20 {
		t.Errorf("ours usage %+v", ours)
	}
	if cot.Count != 1 || cot.ErrorsByClass[failure.InvalidQuery.String()] != 1 {
		t.Errorf("cot %+v", cot)
	}
	if ours.Latency.MeanMS <= 0 || ours.Latency.P50MS <= 0 || ours.Latency.P95MS < ours.Latency.P50MS {
		t.Errorf("latency %+v", ours.Latency)
	}
	var bucketTotal int64
	for _, b := range ours.Latency.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != ours.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, ours.Count)
	}
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Record("m", time.Millisecond, nil, answer.Result{}, Info{})
	if c.Snapshot() != nil {
		t.Fatal("nil collector snapshot should be nil")
	}
}

func TestQuantileEstimates(t *testing.T) {
	// 100 requests all in the (2ms, 5ms] bucket: every quantile lands
	// inside it.
	counts := make([]int64, len(latencyBucketsMS)+1)
	counts[bucketOf(latencyBucketsMS[:], 5)] = 100
	for _, p := range []int{50, 95, 99} {
		got := quantile(latencyBucketsMS[:], counts, 100, p)
		if got <= 2 || got > 5 {
			t.Errorf("p%d = %v, want in (2, 5]", p, got)
		}
	}
	// +Inf bucket reports its floor.
	counts = make([]int64, len(latencyBucketsMS)+1)
	counts[len(counts)-1] = 10
	if got := quantile(latencyBucketsMS[:], counts, 10, 50); got != latencyBucketsMS[len(latencyBucketsMS)-1] {
		t.Errorf("+Inf bucket quantile = %v", got)
	}
}

// TestQuantilesResolveTheServer: over seeded sub-millisecond and
// multi-second samples, each reported p50, p95 and p99 falls in the bucket
// that holds the nearest-rank sample metrics.Percentile takes over the raw
// samples, and that bucket resolves it — it has a lower bound, at most
// 2.5× below its upper. The table that started at 1 ms fails: every hit
// and cold answer of this server fell in its first bucket, (0, 1 ms].
func TestQuantilesResolveTheServer(t *testing.T) {
	if err := quantilesResolve(latencyBucketsMS[:]); err != nil {
		t.Fatal(err)
	}
	from1ms := []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
	if quantilesResolve(from1ms) == nil {
		t.Fatal("the table from 1 ms resolved sub-millisecond samples")
	}
}

// quantilesResolve records seeded sample sets into bounds' buckets and
// reports the first quantile that does not resolve its raw sample.
func quantilesResolve(bounds []float64) error {
	rng := rand.New(rand.NewSource(7))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	for _, set := range []struct {
		name   string
		lo, hi float64 // ms
		n      int
	}{
		{"hits", 0.012, 0.4, 1000},
		{"cold answers", 0.3, 0.95, 997},
		{"sub-millisecond", 0.011, 0.99, 100},
		{"multi-second", 1200, 4900, 203},
	} {
		samples := make([]float64, set.n)
		counts := make([]int64, len(bounds)+1)
		for i := range samples {
			samples[i] = logUniform(set.lo, set.hi)
			counts[bucketOf(bounds, samples[i])]++
		}
		slices.Sort(samples)
		for _, p := range []int{50, 95, 99} {
			raw, got := metrics.Percentile(samples, p), quantile(bounds, counts, int64(set.n), p)
			b := bucketOf(bounds, raw)
			if bucketOf(bounds, got) != b {
				return fmt.Errorf("%s: p%d reported %v, outside the bucket of the raw %v", set.name, p, got, raw)
			}
			if b == 0 || b == len(bounds) || bounds[b] > 2.5*bounds[b-1] {
				return fmt.Errorf("%s: p%d's raw %v falls in a bucket that does not resolve it", set.name, p, raw)
			}
		}
	}
	return nil
}

func TestMetricsMiddlewareAttributesCost(t *testing.T) {
	stub := &stubAnswerer{name: "stub"}
	collector := NewCollector()
	cache := NewCache(CacheConfig{Size: 4})
	stack := Stack(stub, WithMetrics(collector), WithCache(cache, nil))
	q := answer.Query{Text: "q?"}

	for i := 0; i < 3; i++ {
		if _, err := stack.Answer(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	snaps := collector.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot %+v", snaps)
	}
	s := snaps[0]
	if s.Count != 3 || s.CacheHits != 2 {
		t.Fatalf("count=%d hits=%d, want 3/2", s.Count, s.CacheHits)
	}
	// Only the one real run contributes LLM cost.
	if s.LLMCalls != 3 || s.PromptTokens != 100 {
		t.Fatalf("usage should count the single real run once: %+v", s)
	}
}

func TestMetricsMiddlewareRecordsErrors(t *testing.T) {
	stub := &stubAnswerer{name: "stub", err: fmt.Errorf("wrapped: %w", errors.New("boom"))}
	collector := NewCollector()
	stack := Stack(stub, WithMetrics(collector))
	if _, err := stack.Answer(context.Background(), answer.Query{Text: "q?"}); err == nil {
		t.Fatal("want error")
	}
	s := collector.Snapshot()[0]
	if s.Errors != 1 || s.ErrorsByClass[failure.Upstream.String()] != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.LLMCalls != 0 {
		t.Fatalf("failed run contributed usage: %+v", s)
	}
}

// TestCollectorStageAggregation: spans fold into per-stage counts,
// errors-by-class and mean latency, sorted by stage name.
func TestCollectorStageAggregation(t *testing.T) {
	c := NewCollector()
	c.RecordStages("ours", []exec.Span{
		{Stage: "pseudo-graph", Latency: 4 * time.Millisecond, LLMCalls: 1, PromptTokens: 40, CompletionTokens: 8},
		{Stage: "answer", Latency: 2 * time.Millisecond, LLMCalls: 1},
	})
	c.RecordStages("ours", []exec.Span{
		{Stage: "pseudo-graph", Latency: 2 * time.Millisecond, LLMCalls: 1},
		{Stage: "answer", Err: failure.Deadline, Latency: time.Millisecond},
	})

	snaps := c.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("methods = %d, want 1", len(snaps))
	}
	stages := snaps[0].Stages
	if len(stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(stages))
	}
	// Sorted by name: answer before pseudo-graph.
	ans, pg := stages[0], stages[1]
	if ans.Stage != "answer" || pg.Stage != "pseudo-graph" {
		t.Fatalf("stage order: %q, %q", ans.Stage, pg.Stage)
	}
	if pg.Count != 2 || pg.LLMCalls != 2 || pg.PromptTokens != 40 {
		t.Errorf("pseudo-graph aggregate = %+v", pg)
	}
	if pg.MeanLatencyMS != 3 {
		t.Errorf("pseudo-graph mean latency = %v, want 3ms", pg.MeanLatencyMS)
	}
	if ans.Errors != 1 || ans.ErrorsByClass[failure.Deadline.String()] != 1 {
		t.Errorf("answer errors = %+v", ans)
	}

	// Nil collector and empty spans are no-ops.
	var nilC *Collector
	nilC.RecordStages("m", []exec.Span{{Stage: "s"}})
	c.RecordStages("ours", nil)
}
