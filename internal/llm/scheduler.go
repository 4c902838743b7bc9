package llm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failure"
)

// Priority is the admission lane of a request. The LLM is the one truly
// scarce resource of the system, so when the scheduler's concurrency limit
// saturates, interactive traffic (a user waiting on /v1/answer) is admitted
// ahead of queued batch work (benchmarks, /v1/batch sweeps) no matter how
// long the batch queue is.
type Priority int

const (
	// PriorityBatch is the default lane: bulk evaluation, batch endpoints,
	// background work.
	PriorityBatch Priority = iota
	// PriorityInteractive is the preempting lane for latency-sensitive
	// requests.
	PriorityInteractive
)

// String names the lane.
func (p Priority) String() string {
	if p == PriorityInteractive {
		return "interactive"
	}
	return "batch"
}

type priorityKey struct{}

// WithPriority tags every LLM call made under ctx with an admission lane.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return context.WithValue(ctx, priorityKey{}, p)
}

// PriorityFrom reads the lane from ctx; untagged contexts are batch.
func PriorityFrom(ctx context.Context) Priority {
	p, _ := ctx.Value(priorityKey{}).(Priority)
	return p
}

// ErrBudgetExhausted reports that a request's token budget could not cover
// another completion call. It carries failure.Budget, so a stage span and
// every reply report "budget", not a generic upstream failure.
var ErrBudgetExhausted = failure.Wrap(failure.Budget, errors.New("llm: token budget exhausted"))

// Budget is a per-request token allowance shared by every LLM call made on
// behalf of one logical query. Attach with WithBudget; a scheduler-wrapped
// client debits each call's prompt and completion tokens and refuses calls
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

// WithBudget attaches a token budget to every scheduled LLM call under ctx.
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

// Scheduler is the shared admission controller for LLM calls: a bounded
// concurrency slot pool with two priority lanes. One Scheduler is shared
// across every model client (Wrap), so the limit covers the process, not
// one backend. Safe for concurrent use.
type Scheduler struct {
	mu          sync.Mutex
	limit       int
	inFlight    int
	interactive []*waiter
	batch       []*waiter

	admitted  [2]atomic.Int64 // by Priority
	queued    atomic.Int64    // admissions that had to wait
	waitNS    atomic.Int64    // cumulative queue time
	maxWaitNS atomic.Int64
}

// waiter is one queued admission.
type waiter struct {
	ready chan struct{}
}

// NewScheduler builds a scheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 16
	}
	return &Scheduler{limit: cfg.Concurrency}
}

// Acquire blocks until a slot is free (interactive requests jump every
// queued batch request) or ctx ends. Callers must Release exactly once per
// successful Acquire.
func (s *Scheduler) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	pri := PriorityFrom(ctx)
	s.mu.Lock()
	if s.inFlight < s.limit {
		s.inFlight++
		s.admitted[lane(pri)].Add(1)
		s.mu.Unlock()
		return nil
	}
	w := &waiter{ready: make(chan struct{})}
	if pri == PriorityInteractive {
		s.interactive = append(s.interactive, w)
	} else {
		s.batch = append(s.batch, w)
	}
	s.mu.Unlock()
	start := time.Now()
	select {
	case <-w.ready:
		// Waited counts only granted admissions, at grant time — waiters
		// that cancel before admission would otherwise deflate MeanWaitMS
		// exactly when the operator is diagnosing queueing.
		s.queued.Add(1)
		wait := time.Since(start).Nanoseconds()
		s.waitNS.Add(wait)
		for {
			max := s.maxWaitNS.Load()
			if wait <= max || s.maxWaitNS.CompareAndSwap(max, wait) {
				break
			}
		}
		s.admitted[lane(pri)].Add(1)
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		removed := s.remove(w)
		s.mu.Unlock()
		if !removed {
			// Release raced us and already granted the slot: hand it back so
			// the pool never leaks capacity.
			s.Release()
		}
		return ctx.Err()
	}
}

// Release returns a slot, handing it directly to the longest-waiting
// interactive request if any, else the longest-waiting batch request.
func (s *Scheduler) Release() {
	s.mu.Lock()
	var w *waiter
	if len(s.interactive) > 0 {
		w = s.interactive[0]
		s.interactive = s.interactive[1:]
	} else if len(s.batch) > 0 {
		w = s.batch[0]
		s.batch = s.batch[1:]
	}
	if w != nil {
		// The slot transfers without touching inFlight.
		close(w.ready)
		s.mu.Unlock()
		return
	}
	s.inFlight--
	s.mu.Unlock()
}

// remove drops w from whichever queue holds it; false means it was already
// granted.
func (s *Scheduler) remove(w *waiter) bool {
	for i, q := range s.interactive {
		if q == w {
			s.interactive = append(s.interactive[:i], s.interactive[i+1:]...)
			return true
		}
	}
	for i, q := range s.batch {
		if q == w {
			s.batch = append(s.batch[:i], s.batch[i+1:]...)
			return true
		}
	}
	return false
}

// lane maps a Priority onto its stats slot.
func lane(p Priority) int {
	if p == PriorityInteractive {
		return 1
	}
	return 0
}

// SchedulerStats is a point-in-time scheduler snapshot.
type SchedulerStats struct {
	// Concurrency is the slot-pool size; InFlight the slots in use.
	Concurrency int `json:"concurrency"`
	InFlight    int `json:"in_flight"`
	// QueuedInteractive / QueuedBatch are the current queue depths.
	QueuedInteractive int `json:"queued_interactive"`
	QueuedBatch       int `json:"queued_batch"`
	// AdmittedInteractive / AdmittedBatch count admissions per lane.
	AdmittedInteractive int64 `json:"admitted_interactive"`
	AdmittedBatch       int64 `json:"admitted_batch"`
	// Waited counts admissions that had to queue; MeanWaitMS / MaxWaitMS
	// summarise their queue time. (Budget refusals appear per method as
	// failure.Budget in the serving metrics, not here — budgets are
	// enforced by Budgeted, upstream of admission.)
	Waited     int64   `json:"waited"`
	MeanWaitMS float64 `json:"mean_wait_ms"`
	MaxWaitMS  float64 `json:"max_wait_ms"`
}

// Stats snapshots the scheduler. Safe on nil (all zeros).
func (s *Scheduler) Stats() SchedulerStats {
	if s == nil {
		return SchedulerStats{}
	}
	s.mu.Lock()
	st := SchedulerStats{
		Concurrency:       s.limit,
		InFlight:          s.inFlight,
		QueuedInteractive: len(s.interactive),
		QueuedBatch:       len(s.batch),
	}
	s.mu.Unlock()
	st.AdmittedBatch = s.admitted[0].Load()
	st.AdmittedInteractive = s.admitted[1].Load()
	st.Waited = s.queued.Load()
	if st.Waited > 0 {
		st.MeanWaitMS = float64(s.waitNS.Load()) / float64(st.Waited) / 1e6
	}
	st.MaxWaitMS = float64(s.maxWaitNS.Load()) / 1e6
	return st
}

// Wrap routes a client's Complete calls through the scheduler's admission
// control. A nil scheduler returns the client unwrapped.
func (s *Scheduler) Wrap(inner Client) Client {
	if s == nil {
		return inner
	}
	return &scheduledClient{inner: inner, sched: s}
}

// scheduledClient is one backend behind the shared scheduler.
type scheduledClient struct {
	inner Client
	sched *Scheduler
}

// Name implements Client.
func (c *scheduledClient) Name() string { return c.inner.Name() }

// Complete implements Client: slot acquisition, then the inner call.
func (c *scheduledClient) Complete(ctx context.Context, req Request) (Response, error) {
	if err := c.sched.Acquire(ctx); err != nil {
		return Response{}, err
	}
	defer c.sched.Release()
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
