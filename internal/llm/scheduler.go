package llm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/failure"
	"repro/internal/slots"
)

// ErrBudgetExhausted reports that a request's token budget could not cover
// another completion call. It carries failure.Budget, so a stage span and
// every reply report "budget", not a generic upstream failure.
var ErrBudgetExhausted = failure.Wrap(failure.Budget, errors.New("llm: token budget exhausted"))

// SchedulerConfig sizes the shared scheduler.
type SchedulerConfig struct {
	// Concurrency is the maximum number of in-flight Complete calls across
	// every client the scheduler wraps; <= 0 means 16.
	Concurrency int
}

// Scheduler bounds in-flight LLM calls: a slot pool shared by every model
// client it wraps (Wrap), so the limit covers the process, not one
// backend. At saturation calls are admitted first come, first served,
// and a call waits until a slot frees or its context ends. Safe for
// concurrent use.
type Scheduler struct {
	slots *slots.Pool
}

// NewScheduler builds a scheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 16
	}
	return &Scheduler{slots: slots.New(cfg.Concurrency, math.MaxInt)}
}

// SchedulerStats is a point-in-time scheduler snapshot.
type SchedulerStats struct {
	// Concurrency is the slot-pool size, InFlight the slots in use and
	// Queued the calls waiting for one.
	Concurrency int `json:"concurrency"`
	InFlight    int `json:"in_flight"`
	Queued      int `json:"queued"`
	// Admitted counts admitted calls. Waited counts those that had to
	// queue first; MeanWaitMS / MaxWaitMS summarise their queue time.
	// (Budget refusals appear per method as failure.Budget in the serving
	// metrics, not here — a query's Counting enforces its budget, upstream
	// of admission.)
	Admitted   int64   `json:"admitted"`
	Waited     int64   `json:"waited"`
	MeanWaitMS float64 `json:"mean_wait_ms"`
	MaxWaitMS  float64 `json:"max_wait_ms"`
}

// Stats snapshots the scheduler. Safe on nil (all zeros).
func (s *Scheduler) Stats() SchedulerStats {
	if s == nil {
		return SchedulerStats{}
	}
	p := s.slots.Stats()
	st := SchedulerStats{
		Concurrency: p.Size,
		InFlight:    p.InUse,
		Queued:      p.Queued,
		Admitted:    p.Admitted,
		Waited:      p.Waited,
		MaxWaitMS:   float64(p.MaxWait) / 1e6,
	}
	if p.Waited > 0 {
		st.MeanWaitMS = float64(p.WaitTotal) / float64(p.Waited) / 1e6
	}
	return st
}

// Wrap routes a client's Complete calls through the scheduler's admission
// control. A nil scheduler returns the client unwrapped.
func (s *Scheduler) Wrap(inner Client) Client {
	if s == nil {
		return inner
	}
	return &scheduledClient{inner: inner, slots: s.slots}
}

// scheduledClient is one backend behind the shared scheduler.
type scheduledClient struct {
	inner Client
	slots *slots.Pool
}

// Name implements Client.
func (c *scheduledClient) Name() string { return c.inner.Name() }

// Complete implements Client: slot acquisition, then the inner call. A
// context that has already ended takes no slot.
func (c *scheduledClient) Complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	if err := c.slots.Acquire(ctx); err != nil {
		return Response{}, err
	}
	defer c.slots.Release()
	return c.inner.Complete(ctx, req)
}

// Counting wraps a client and tallies usage of every successful call —
// the exec engine's per-stage Usage hook — and enforces an optional token
// budget: one query's allowance of prompt plus completion tokens. A call
// whose estimated prompt the remaining allowance cannot cover is refused
// with ErrBudgetExhausted and not counted; completion tokens are debited
// after the call, so a budget overdraws by at most one completion. The
// budget holds whether or not a scheduler bounds admission. Safe for
// concurrent use.
type Counting struct {
	Inner Client

	calls            atomic.Int64
	promptTokens     atomic.Int64
	completionTokens atomic.Int64
	budgeted         bool
	remaining        atomic.Int64 // of the budget
}

// NewCounting wraps a client under a token budget; budget <= 0 leaves
// calls unlimited.
func NewCounting(inner Client, budget int) *Counting {
	c := &Counting{Inner: inner, budgeted: budget > 0}
	c.remaining.Store(int64(budget))
	return c
}

// Name implements Client.
func (c *Counting) Name() string { return c.Inner.Name() }

// Complete implements Client, counting successful calls.
func (c *Counting) Complete(ctx context.Context, req Request) (Response, error) {
	if c.budgeted && !c.take(int64(estimateTokens(req.Prompt))) {
		return Response{}, fmt.Errorf("llm: completion refused: %w", ErrBudgetExhausted)
	}
	resp, err := c.Inner.Complete(ctx, req)
	if err == nil {
		c.calls.Add(1)
		c.promptTokens.Add(int64(resp.Usage.PromptTokens))
		c.completionTokens.Add(int64(resp.Usage.CompletionTokens))
		c.remaining.Add(-int64(resp.Usage.CompletionTokens))
	}
	return resp, err
}

// take debits n tokens from the budget; it reports false — debiting
// nothing — when the remaining allowance cannot cover them.
func (c *Counting) take(n int64) bool {
	for {
		cur := c.remaining.Load()
		if cur < n {
			return false
		}
		if c.remaining.CompareAndSwap(cur, cur-n) {
			return true
		}
	}
}

// Usage snapshots the counters (an exec.UsageFunc).
func (c *Counting) Usage() (calls, promptTokens, completionTokens int) {
	return int(c.calls.Load()), int(c.promptTokens.Load()), int(c.completionTokens.Load())
}
