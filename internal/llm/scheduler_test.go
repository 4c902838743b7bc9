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

// TestSchedulerWrapSharesOnePool: the limit covers the process, not one
// backend — two clients wrapped by one scheduler share its slot, calls
// queue first come, first served, and the stats book them. The queue's
// own mechanics are internal/slots' tests.
func TestSchedulerWrapSharesOnePool(t *testing.T) {
	inner := &gateClient{started: make(chan string), release: make(chan struct{})}
	sched := NewScheduler(SchedulerConfig{Concurrency: 1})
	a, b := sched.Wrap(inner), sched.Wrap(inner)

	done := make(chan error, 3)
	call := func(c Client, label string) {
		_, err := c.Complete(context.Background(), Request{Prompt: label})
		done <- err
	}
	go call(a, "first")
	if got := <-inner.started; got != "first" {
		t.Fatalf("first admission = %q", got)
	}
	go call(b, "second")
	waitFor(t, "second to queue", func() bool { return sched.Stats().Queued == 1 })
	go call(a, "third")
	waitFor(t, "third to queue", func() bool { return sched.Stats().Queued == 2 })
	if st := sched.Stats(); st.Concurrency != 1 || st.InFlight != 1 {
		t.Fatalf("saturated stats = %+v", st)
	}
	for _, want := range []string{"second", "third"} {
		inner.release <- struct{}{}
		if got := <-inner.started; got != want {
			t.Fatalf("next admission = %q, want %q", got, want)
		}
	}
	inner.release <- struct{}{}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// A context that has already ended takes no slot.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Complete(ctx, Request{Prompt: "late"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("call on an ended context: %v, want context.Canceled", err)
	}
	st := sched.Stats()
	if st.Admitted != 3 || st.Waited != 2 || st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("stats = %+v, want 3 admitted, 2 waited, drained", st)
	}
	if st.MeanWaitMS <= 0 || st.MaxWaitMS < st.MeanWaitMS {
		t.Errorf("wait stats mean %v max %v", st.MeanWaitMS, st.MaxWaitMS)
	}
}

// TestBudgetedTokenBudget verifies the per-query budget a Counting
// enforces, with no scheduler: calls run until the allowance is spent,
// then fail with ErrBudgetExhausted (class budget), and a refused call is
// not counted as usage.
func TestBudgetedTokenBudget(t *testing.T) {
	client := NewCounting(echoClient{}, 50)

	prompt := strings.Repeat("word ", 30) // ~40 estimated tokens
	if _, err := client.Complete(context.Background(), Request{Prompt: prompt}); err != nil {
		t.Fatalf("first call within budget: %v", err)
	}
	_, err := client.Complete(context.Background(), Request{Prompt: prompt})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("second call err = %v, want ErrBudgetExhausted", err)
	}
	if got := failure.Of(err); got != failure.Budget {
		t.Errorf("budget refusal classes as %q, want %q", got, failure.Budget)
	}
	if calls, pt, ct := client.Usage(); calls != 1 || pt != estimateTokens(prompt) || ct != 2 {
		t.Errorf("usage = %d calls, %d+%d tokens; want the one admitted call", calls, pt, ct)
	}

	// Completion tokens are debited after the call: a budget that covers
	// the prompt alone admits one call, then refuses the next.
	tight := NewCounting(echoClient{}, estimateTokens("a b c")+1)
	if _, err := tight.Complete(context.Background(), Request{Prompt: "a b c"}); err != nil {
		t.Fatalf("call the budget covers: %v", err)
	}
	if _, err := tight.Complete(context.Background(), Request{Prompt: "a"}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("call after the completion overdrew: %v, want ErrBudgetExhausted", err)
	}

	// A counter without a budget is unlimited.
	free := NewCounting(echoClient{}, 0)
	for i := 0; i < 3; i++ {
		if _, err := free.Complete(context.Background(), Request{Prompt: prompt}); err != nil {
			t.Fatalf("unbudgeted call: %v", err)
		}
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
	c := NewCounting(echoClient{}, 0)
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
