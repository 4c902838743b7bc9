package answer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failure"
)

// stubAnswerer fails queries whose text contains "fail", counts concurrent
// executions, and otherwise echoes the question.
type stubAnswerer struct {
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	delay       time.Duration
}

func (s *stubAnswerer) Name() string { return "stub" }

func (s *stubAnswerer) Answer(ctx context.Context, q Query) (Result, error) {
	cur := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for {
		prev := s.maxInFlight.Load()
		if cur <= prev || s.maxInFlight.CompareAndSwap(prev, cur) {
			break
		}
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	if strings.Contains(q.Text, "fail") {
		return Result{}, errors.New("stub: induced failure")
	}
	return Result{Answer: "echo: " + q.Text, Method: "stub"}, nil
}

func TestBatchPartialFailureIsolation(t *testing.T) {
	queries := []Query{
		{Text: "q0"}, {Text: "q1 fail"}, {Text: "q2"}, {Text: "q3 fail"}, {Text: "q4"},
	}
	items := Batch(context.Background(), &stubAnswerer{}, queries, Concurrency(2))
	if len(items) != len(queries) {
		t.Fatalf("got %d items, want %d", len(items), len(queries))
	}
	for i, item := range items {
		if item.Index != i || item.Query.Text != queries[i].Text {
			t.Errorf("item %d out of order: %+v", i, item)
		}
		wantFail := strings.Contains(queries[i].Text, "fail")
		if (item.Err != nil) != wantFail {
			t.Errorf("item %d err = %v, want failure=%v", i, item.Err, wantFail)
		}
		if wantFail && item.Class != failure.Upstream {
			t.Errorf("item %d class = %q, want %q", i, item.Class, failure.Upstream)
		}
		if !wantFail && item.Result.Answer != "echo: "+queries[i].Text {
			t.Errorf("item %d answer = %q", i, item.Result.Answer)
		}
	}
	if err := FirstError(items); err == nil || !strings.Contains(err.Error(), "induced") {
		t.Errorf("FirstError = %v", err)
	}
}

func TestBatchConcurrencyBound(t *testing.T) {
	stub := &stubAnswerer{delay: 5 * time.Millisecond}
	var queries []Query
	for i := 0; i < 12; i++ {
		queries = append(queries, Query{Text: fmt.Sprintf("q%d", i)})
	}
	items := Batch(context.Background(), stub, queries, Concurrency(3))
	if err := FirstError(items); err != nil {
		t.Fatal(err)
	}
	if max := stub.maxInFlight.Load(); max > 3 {
		t.Errorf("max in-flight = %d, want <= 3", max)
	}
}

func TestBatchCancellationMarksRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := []Query{{Text: "a"}, {Text: "b"}, {Text: "c"}}
	items := Batch(ctx, &stubAnswerer{}, queries, Concurrency(1))
	for i, item := range items {
		if !errors.Is(item.Err, context.Canceled) {
			t.Errorf("item %d err = %v, want context.Canceled", i, item.Err)
		}
		if item.Class != failure.Canceled {
			t.Errorf("item %d class = %q", i, item.Class)
		}
	}
}

func TestBatchEmptyAndDefaults(t *testing.T) {
	if items := Batch(context.Background(), &stubAnswerer{}, nil); len(items) != 0 {
		t.Errorf("empty batch returned %d items", len(items))
	}
	// Zero/negative concurrency falls back to a single worker.
	items := Batch(context.Background(), &stubAnswerer{}, []Query{{Text: "x"}}, Concurrency(-4))
	if err := FirstError(items); err != nil {
		t.Fatal(err)
	}
}

// countingAnswerer tallies Answer invocations.
type countingAnswerer struct {
	stubAnswerer
	runs atomic.Int64
}

func (c *countingAnswerer) Answer(ctx context.Context, q Query) (Result, error) {
	c.runs.Add(1)
	return c.stubAnswerer.Answer(ctx, q)
}

func TestBatchWithoutDedupRunsEverything(t *testing.T) {
	ans := &countingAnswerer{}
	queries := []Query{{Text: "same"}, {Text: "same"}, {Text: "same"}}
	Batch(context.Background(), ans, queries)
	if got := ans.runs.Load(); got != 3 {
		t.Fatalf("runs = %d, want 3 (Batch folds nothing; the serve stack is the dedup layer)", got)
	}
}

// slowOnceAnswerer sleeps only for queries containing "slow"; everything
// else returns immediately.
type slowOnceAnswerer struct {
	slowDelay time.Duration
}

func (s *slowOnceAnswerer) Name() string { return "slow-once" }

func (s *slowOnceAnswerer) Answer(ctx context.Context, q Query) (Result, error) {
	if strings.Contains(q.Text, "slow") {
		select {
		case <-time.After(s.slowDelay):
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	return Result{Answer: "echo: " + q.Text, Method: s.Name()}, nil
}

// TestBatchItemTimeoutIsolatesSlowItem is the deadline-starvation fix: a
// per-item timeout makes only the slow item fail with failure.Deadline while
// every other item completes, where a shared batch deadline would have
// failed everything queued behind the slow one.
func TestBatchItemTimeoutIsolatesSlowItem(t *testing.T) {
	ans := &slowOnceAnswerer{slowDelay: 5 * time.Second}
	queries := []Query{
		{Text: "q0"}, {Text: "q1 slow"}, {Text: "q2"}, {Text: "q3"}, {Text: "q4"},
	}
	start := time.Now()
	items := Batch(context.Background(), ans, queries,
		Concurrency(2), ItemTimeout(50*time.Millisecond))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("batch took %v; the slow item starved the pool", elapsed)
	}
	for i, item := range items {
		if strings.Contains(item.Query.Text, "slow") {
			if item.Class != failure.Deadline {
				t.Errorf("slow item class = %q, want deadline", item.Class)
			}
			continue
		}
		if item.Err != nil {
			t.Errorf("item %d (%q) failed: %v — per-item deadlines must isolate the slow item", i, item.Query.Text, item.Err)
		}
	}
}

// TestBatchItemTimeoutClockStartsAtPickup: items queued behind busy
// workers must not have their deadline burn down while waiting.
func TestBatchItemTimeoutClockStartsAtPickup(t *testing.T) {
	// One worker, every item takes 30ms, item timeout 50ms: a shared
	// deadline would expire during item 3; per-item clocks never do.
	ans := &stubAnswerer{delay: 30 * time.Millisecond}
	queries := []Query{{Text: "q0"}, {Text: "q1"}, {Text: "q2"}, {Text: "q3"}, {Text: "q4"}}
	items := Batch(context.Background(), ans, queries,
		Concurrency(1), ItemTimeout(50*time.Millisecond))
	if err := FirstError(items); err != nil {
		t.Fatalf("late items timed out under a per-item clock: %v", err)
	}
}
