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

// Budget is a per-request token allowance shared by every LLM call made on
// behalf of one logical query. Attach with WithBudget; a Budgeted client
// debits each call's prompt and completion tokens and refuses calls
// once the allowance is spent, turning runaway multi-call methods into a
// bounded, reportable failure instead of unbounded cost.
type Budget struct {
	remaining atomic.Int64
	rejected  atomic.Int64
}

// NewBudget allows the given number of tokens (prompt + completion).
func NewBudget(tokens int) *Budget {
	b := &Budget{}
	b.remaining.Store(int64(tokens))
	return b
}

// Rejected reports how many calls this budget refused.
func (b *Budget) Rejected() int { return int(b.rejected.Load()) }

// take debits n tokens; it reports false — debiting nothing — when the
// remaining allowance cannot cover them.
func (b *Budget) take(n int) bool {
	for {
		cur := b.remaining.Load()
		if cur < int64(n) {
			return false
		}
		if b.remaining.CompareAndSwap(cur, cur-int64(n)) {
			return true
		}
	}
}

// spend debits n tokens unconditionally (actual completion usage may
// overdraw; the next take then refuses).
func (b *Budget) spend(n int) { b.remaining.Add(-int64(n)) }

type budgetKey struct{}

// WithBudget attaches a token budget to every Budgeted LLM call under ctx.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// budgetFrom reads the budget, nil when none is attached.
func budgetFrom(ctx context.Context) *Budget {
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}

// Budgeted enforces the context's token budget around a client: a call
// whose estimated prompt tokens the budget cannot cover is refused with
// ErrBudgetExhausted (class failure.Budget); completion tokens are
// debited after the call, so a budget overdraws by at most one completion.
// Enforcement lives here — independent of the scheduler — so budgets hold
// even when admission control is unbounded. Contexts without a budget
// pass straight through.
func Budgeted(inner Client) Client { return &budgetedClient{inner: inner} }

type budgetedClient struct {
	inner Client
}

// Name implements Client.
func (c *budgetedClient) Name() string { return c.inner.Name() }

// Complete implements Client.
func (c *budgetedClient) Complete(ctx context.Context, req Request) (Response, error) {
	b := budgetFrom(ctx)
	if b == nil {
		return c.inner.Complete(ctx, req)
	}
	if !b.take(estimateTokens(req.Prompt)) {
		b.rejected.Add(1)
		return Response{}, fmt.Errorf("llm: completion refused: %w", ErrBudgetExhausted)
	}
	resp, err := c.inner.Complete(ctx, req)
	if err == nil {
		b.spend(resp.Usage.CompletionTokens)
	}
	return resp, err
}

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
	// metrics, not here — budgets are enforced by Budgeted, upstream of
	// admission.)
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
// the exec engine's per-stage Usage hook. Safe for concurrent use.
type Counting struct {
	Inner Client

	calls            atomic.Int64
	promptTokens     atomic.Int64
	completionTokens atomic.Int64
}

// NewCounting wraps a client.
func NewCounting(inner Client) *Counting { return &Counting{Inner: inner} }

// Name implements Client.
func (c *Counting) Name() string { return c.Inner.Name() }

// Complete implements Client, counting successful calls.
func (c *Counting) Complete(ctx context.Context, req Request) (Response, error) {
	resp, err := c.Inner.Complete(ctx, req)
	if err == nil {
		c.calls.Add(1)
		c.promptTokens.Add(int64(resp.Usage.PromptTokens))
		c.completionTokens.Add(int64(resp.Usage.CompletionTokens))
	}
	return resp, err
}

// Usage snapshots the counters (an exec.UsageFunc).
func (c *Counting) Usage() (calls, promptTokens, completionTokens int) {
	return int(c.calls.Load()), int(c.promptTokens.Load()), int(c.completionTokens.Load())
}
