package serve

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/answer"
	"repro/internal/core/exec"
	"repro/internal/failure"
)

// latencyBucketsMS are the histogram upper bounds in milliseconds, a
// 1-2-5 series from 10 µs to 5 s; the final implicit bucket is +Inf. A
// cache hit on this server takes tens of microseconds and a cold answer
// under a millisecond, so the bounds start far below 1 ms, and adjacent
// bounds are at most 2.5× apart: a reported quantile lies in the bucket
// of the sample it stands for.
var latencyBucketsMS = [...]float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// Collector aggregates per-method serving metrics. The hot path is
// lock-cheap: one sync.Map lookup plus a handful of atomic adds; the
// mutex is only taken to insert a method's slot the first time it is seen.
type Collector struct {
	methods sync.Map // method name -> *methodStats
	mu      sync.Mutex
	start   time.Time
}

// methodStats is one method's counters; every hot-path field is atomic.
// Stage aggregation takes a short mutex — stage cardinality is tiny (four
// pipeline stages, at most a few per baseline) and spans arrive once per
// request, not per call.
type methodStats struct {
	count     atomic.Int64
	classes   [failure.NumClasses]atomic.Int64 // indexed by failure class
	cacheHits atomic.Int64
	shared    atomic.Int64

	latencySumNS atomic.Int64
	buckets      [len(latencyBucketsMS) + 1]atomic.Int64 // the last is +Inf

	llmCalls         atomic.Int64
	promptTokens     atomic.Int64
	completionTokens atomic.Int64

	stageMu sync.Mutex
	stages  map[string]*stageStats
}

// stageStats aggregates one stage's spans within a method.
type stageStats struct {
	count            int64
	errorsByClass    [failure.NumClasses]int64
	latencyNS        int64
	llmCalls         int64
	promptTokens     int64
	completionTokens int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{start: time.Now()}
}

// stats returns (creating if needed) the method's slot.
func (c *Collector) stats(method string) *methodStats {
	if s, ok := c.methods.Load(method); ok {
		return s.(*methodStats)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.methods.Load(method); ok {
		return s.(*methodStats)
	}
	s := &methodStats{}
	c.methods.Store(method, s)
	return s
}

// Record registers one completed request. usage carries the result's LLM
// accounting; pass a zero Result for failed or cache-served requests so
// upstream cost is attributed only to real runs.
func (c *Collector) Record(method string, elapsed time.Duration, err error, usage answer.Result, info Info) {
	if c == nil {
		return
	}
	s := c.stats(method)
	s.count.Add(1)
	if err != nil {
		s.classes[failure.Of(err)].Add(1)
	}
	if info.CacheHit {
		s.cacheHits.Add(1)
	}
	if info.Shared {
		s.shared.Add(1)
	}
	s.latencySumNS.Add(int64(elapsed))
	s.buckets[bucketOf(latencyBucketsMS[:], float64(elapsed)/float64(time.Millisecond))].Add(1)
	s.llmCalls.Add(int64(usage.LLMCalls))
	s.promptTokens.Add(int64(usage.PromptTokens))
	s.completionTokens.Add(int64(usage.CompletionTokens))
}

// RecordStages folds one run's stage spans into the method's per-stage
// aggregates. Callers skip cache hits and coalesced runs — their spans
// belong to the run that actually executed.
func (c *Collector) RecordStages(method string, spans []exec.Span) {
	if c == nil || len(spans) == 0 {
		return
	}
	s := c.stats(method)
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	if s.stages == nil {
		s.stages = make(map[string]*stageStats, len(spans))
	}
	for _, sp := range spans {
		st := s.stages[sp.Stage]
		if st == nil {
			st = &stageStats{}
			s.stages[sp.Stage] = st
		}
		st.count++
		st.errorsByClass[sp.Err]++ // a success lands in the None slot, which countsByClass skips
		st.latencyNS += int64(sp.Latency)
		st.llmCalls += int64(sp.LLMCalls)
		st.promptTokens += int64(sp.PromptTokens)
		st.completionTokens += int64(sp.CompletionTokens)
	}
}

// LatencySnapshot summarises a method's latency distribution.
type LatencySnapshot struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	// Buckets maps each upper bound (ms; -1 = +Inf) to its count, in
	// bound order.
	Buckets []BucketCount `json:"buckets"`
}

// BucketCount is one histogram cell.
type BucketCount struct {
	UpperMS float64 `json:"upper_ms"` // -1 means +Inf
	Count   int64   `json:"count"`
}

// StageSnapshot is one stage's aggregate within a method: how often it
// ran, how long it took, what it cost, and how it failed.
type StageSnapshot struct {
	Stage            string           `json:"stage"`
	Count            int64            `json:"count"`
	Errors           int64            `json:"errors"`
	ErrorsByClass    map[string]int64 `json:"errors_by_class,omitempty"`
	MeanLatencyMS    float64          `json:"mean_latency_ms"`
	LLMCalls         int64            `json:"llm_calls"`
	PromptTokens     int64            `json:"prompt_tokens"`
	CompletionTokens int64            `json:"completion_tokens"`
}

// MethodSnapshot is one method's point-in-time metrics.
type MethodSnapshot struct {
	Method           string           `json:"method"`
	Count            int64            `json:"count"`
	Errors           int64            `json:"errors"`
	ErrorsByClass    map[string]int64 `json:"errors_by_class,omitempty"`
	CacheHits        int64            `json:"cache_hits"`
	SharedRuns       int64            `json:"shared_runs"`
	LLMCalls         int64            `json:"llm_calls"`
	PromptTokens     int64            `json:"prompt_tokens"`
	CompletionTokens int64            `json:"completion_tokens"`
	Latency          LatencySnapshot  `json:"latency"`
	// Stages breaks the method down per executed stage, sorted by stage
	// name; empty until the method has reported spans.
	Stages []StageSnapshot `json:"stages,omitempty"`
}

// Snapshot returns every method's metrics, sorted by method name.
func (c *Collector) Snapshot() []MethodSnapshot {
	if c == nil {
		return nil
	}
	var out []MethodSnapshot
	c.methods.Range(func(k, v any) bool {
		s := v.(*methodStats)
		snap := MethodSnapshot{
			Method:           k.(string),
			Count:            s.count.Load(),
			CacheHits:        s.cacheHits.Load(),
			SharedRuns:       s.shared.Load(),
			LLMCalls:         s.llmCalls.Load(),
			PromptTokens:     s.promptTokens.Load(),
			CompletionTokens: s.completionTokens.Load(),
		}
		snap.Errors, snap.ErrorsByClass = countsByClass(func(c failure.Class) int64 { return s.classes[c].Load() })
		snap.Latency = latencySnapshot(s)
		snap.Stages = stageSnapshots(s)
		out = append(out, snap)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Method < out[j].Method })
	return out
}

// stageSnapshots folds a method's per-stage aggregates, sorted by stage
// name for stable output.
func stageSnapshots(s *methodStats) []StageSnapshot {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	if len(s.stages) == 0 {
		return nil
	}
	out := make([]StageSnapshot, 0, len(s.stages))
	for name, st := range s.stages {
		snap := StageSnapshot{
			Stage:            name,
			Count:            st.count,
			LLMCalls:         st.llmCalls,
			PromptTokens:     st.promptTokens,
			CompletionTokens: st.completionTokens,
		}
		snap.Errors, snap.ErrorsByClass = countsByClass(func(c failure.Class) int64 { return st.errorsByClass[c] })
		if st.count > 0 {
			snap.MeanLatencyMS = float64(st.latencyNS) / float64(st.count) / float64(time.Millisecond)
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// countsByClass folds every class's count into their total and a map
// keyed by wire name holding the nonzero ones (nil when there are none).
func countsByClass(count func(failure.Class) int64) (total int64, byClass map[string]int64) {
	for class := failure.None + 1; class < failure.NumClasses; class++ {
		if n := count(class); n > 0 {
			if byClass == nil {
				byClass = map[string]int64{}
			}
			byClass[class.String()] = n
			total += n
		}
	}
	return total, byClass
}

// latencySnapshot folds a method's histogram into mean and estimated
// quantiles (linear interpolation within the winning bucket).
func latencySnapshot(s *methodStats) LatencySnapshot {
	var snap LatencySnapshot
	var total int64
	counts := make([]int64, len(latencyBucketsMS)+1)
	for i := range counts {
		counts[i] = s.buckets[i].Load()
		total += counts[i]
		upper := -1.0
		if i < len(latencyBucketsMS) {
			upper = latencyBucketsMS[i]
		}
		snap.Buckets = append(snap.Buckets, BucketCount{UpperMS: upper, Count: counts[i]})
	}
	if total == 0 {
		return snap
	}
	snap.MeanMS = float64(s.latencySumNS.Load()) / float64(total) / float64(time.Millisecond)
	snap.P50MS = quantile(latencyBucketsMS[:], counts, total, 50)
	snap.P95MS = quantile(latencyBucketsMS[:], counts, total, 95)
	snap.P99MS = quantile(latencyBucketsMS[:], counts, total, 99)
	return snap
}

// bucketOf returns the index of the bucket of bounds that holds ms: the
// first whose upper bound is at least ms, or len(bounds) for +Inf.
func bucketOf(bounds []float64, ms float64) int {
	for i, bound := range bounds {
		if ms <= bound {
			return i
		}
	}
	return len(bounds)
}

// quantile estimates the p-th percentile from the counts of the buckets
// of bounds (the last one +Inf), total in all: it finds the bucket that
// holds the nearest-rank sample metrics.Percentile would take over the raw
// samples, and interpolates linearly inside it by that sample's rank. The
// +Inf bucket reports its lower bound.
func quantile(bounds []float64, counts []int64, total int64, p int) float64 {
	rank := max((int64(p)*total+99)/100, 1)
	var seen int64
	for i, n := range counts {
		if seen+n < rank {
			seen += n
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if i >= len(bounds) {
			return lo // +Inf bucket: report its floor
		}
		return lo + (bounds[i]-lo)*float64(rank-seen)/float64(n)
	}
	return 0
}

// WithMetrics records every request's count, latency, error class and —
// for real (non-cache-hit) runs — LLM cost. Place it outermost so its
// clock covers the whole stack. A nil collector yields a no-op middleware.
func WithMetrics(c *Collector) Middleware {
	return func(inner answer.Answerer) answer.Answerer {
		if c == nil {
			return inner
		}
		return &meteredAnswerer{named: named{inner}, collector: c}
	}
}

type meteredAnswerer struct {
	named
	collector *Collector
}

func (a *meteredAnswerer) Answer(ctx context.Context, q answer.Query) (answer.Result, error) {
	info := infoFrom(ctx)
	if info == nil {
		// No caller-attached Info: attach one so inner layers can still
		// report cache hits for cost attribution.
		ctx, info = Attach(ctx)
	}
	start := time.Now()
	res, err := a.inner.Answer(ctx, q)
	usage := res
	if info.CacheHit || info.Shared {
		// The upstream cost was (or will be) attributed to the run that
		// actually executed; count nothing twice.
		usage = answer.Result{}
	} else if res.Trace != nil {
		// Per-stage aggregation from the run's spans — failed runs report
		// their partial spans too, so the failing stage is attributed.
		a.collector.RecordStages(a.inner.Name(), res.Trace.Stages)
	}
	a.collector.Record(a.inner.Name(), time.Since(start), err, usage, *info)
	return res, err
}
