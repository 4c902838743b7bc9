package llm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
)

// gateClient blocks every Complete until released, reporting starts on a
// channel so tests can observe admission order.
type gateClient struct {
	started chan string
	release chan struct{}
}

func (g *gateClient) Name() string { return "gate" }

func (g *gateClient) Complete(ctx context.Context, req Request) (Response, error) {
	g.started <- req.Prompt
	<-g.release
	return Response{Text: "ok", Usage: Usage{PromptTokens: estimateTokens(req.Prompt), CompletionTokens: 1}}, nil
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSchedulerInteractivePreemptsBatch is the admission-control proof:
// with the concurrency limit saturated and a batch request queued FIRST,
// a later interactive request is still admitted ahead of it.
func TestSchedulerInteractivePreemptsBatch(t *testing.T) {
	inner := &gateClient{started: make(chan string), release: make(chan struct{})}
	sched := NewScheduler(SchedulerConfig{Concurrency: 1})
	client := sched.Wrap(inner)

	done := make(chan string, 3)
	call := func(ctx context.Context, label string) {
		if _, err := client.Complete(ctx, Request{Prompt: label}); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		done <- label
	}

	// Saturate the single slot.
	go call(context.Background(), "occupant")
	if got := <-inner.started; got != "occupant" {
		t.Fatalf("first admission = %q", got)
	}

	// Queue a batch request, then an interactive one behind it.
	go call(WithPriority(context.Background(), PriorityBatch), "batch")
	waitFor(t, "batch to queue", func() bool { return sched.Stats().QueuedBatch == 1 })
	go call(WithPriority(context.Background(), PriorityInteractive), "interactive")
	waitFor(t, "interactive to queue", func() bool { return sched.Stats().QueuedInteractive == 1 })

	// Free the slot: the interactive request must be admitted first even
	// though the batch request has waited longer.
	inner.release <- struct{}{}
	if got := <-inner.started; got != "interactive" {
		t.Fatalf("post-release admission = %q, want interactive", got)
	}
	inner.release <- struct{}{}
	if got := <-inner.started; got != "batch" {
		t.Fatalf("final admission = %q, want batch", got)
	}
	inner.release <- struct{}{}
	for i := 0; i < 3; i++ {
		<-done
	}

	st := sched.Stats()
	if st.AdmittedInteractive != 1 || st.AdmittedBatch != 2 {
		t.Errorf("admissions = %d interactive / %d batch, want 1/2", st.AdmittedInteractive, st.AdmittedBatch)
	}
	if st.Waited != 2 {
		t.Errorf("waited = %d, want 2", st.Waited)
	}
	if st.InFlight != 0 || st.QueuedInteractive != 0 || st.QueuedBatch != 0 {
		t.Errorf("scheduler not drained: %+v", st)
	}
}

// TestSchedulerCancelWhileQueued verifies a cancelled waiter leaves the
// queue without leaking the slot.
func TestSchedulerCancelWhileQueued(t *testing.T) {
	inner := &gateClient{started: make(chan string), release: make(chan struct{})}
	sched := NewScheduler(SchedulerConfig{Concurrency: 1})
	client := sched.Wrap(inner)

	go client.Complete(context.Background(), Request{Prompt: "occupant"}) //nolint:errcheck
	<-inner.started

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Complete(ctx, Request{Prompt: "canceled"})
		errCh <- err
	}()
	waitFor(t, "waiter to queue", func() bool { return sched.Stats().QueuedBatch == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued call err = %v, want context.Canceled", err)
	}
	waitFor(t, "queue to drain", func() bool { return sched.Stats().QueuedBatch == 0 })

	// The slot must still cycle: release the occupant and admit a fresh call.
	inner.release <- struct{}{}
	go client.Complete(context.Background(), Request{Prompt: "fresh"}) //nolint:errcheck
	if got := <-inner.started; got != "fresh" {
		t.Fatalf("post-cancel admission = %q", got)
	}
	inner.release <- struct{}{}
	waitFor(t, "in-flight to drain", func() bool { return sched.Stats().InFlight == 0 })
}

// TestBudgetedTokenBudget verifies the per-request budget: calls run
// until the allowance is spent, then fail with ErrBudgetExhausted.
// Enforcement is scheduler-independent — Budgeted wraps the client
// directly here, exactly as the answer registry does.
func TestBudgetedTokenBudget(t *testing.T) {
	client := Budgeted(echoClient{})

	prompt := strings.Repeat("word ", 30) // ~40 estimated tokens
	budget := NewBudget(50)
	ctx := WithBudget(context.Background(), budget)
	if _, err := client.Complete(ctx, Request{Prompt: prompt}); err != nil {
		t.Fatalf("first call within budget: %v", err)
	}
	_, err := client.Complete(ctx, Request{Prompt: prompt})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("second call err = %v, want ErrBudgetExhausted", err)
	}
	if got := failure.Of(err); got != failure.Budget {
		t.Errorf("budget refusal classes as %q, want %q", got, failure.Budget)
	}
	if budget.Rejected() != 1 {
		t.Errorf("budget.Rejected() = %d, want 1", budget.Rejected())
	}

	// A fresh context without a budget is unaffected.
	if _, err := client.Complete(context.Background(), Request{Prompt: prompt}); err != nil {
		t.Fatalf("unbudgeted call: %v", err)
	}
}

// echoClient is a minimal inner client for budget tests.
type echoClient struct{}

func (echoClient) Name() string { return "echo" }
func (echoClient) Complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	return Response{Text: "ok", Usage: Usage{PromptTokens: estimateTokens(req.Prompt), CompletionTokens: 2}}, nil
}

// TestCountingUsage verifies the exec Usage hook counter.
func TestCountingUsage(t *testing.T) {
	c := NewCounting(echoClient{})
	for i := 0; i < 3; i++ {
		if _, err := c.Complete(context.Background(), Request{Prompt: "a b c d"}); err != nil {
			t.Fatal(err)
		}
	}
	calls, pt, ct := c.Usage()
	if calls != 3 || pt != 3*estimateTokens("a b c d") || ct != 6 {
		t.Errorf("Usage() = %d/%d/%d", calls, pt, ct)
	}
}
