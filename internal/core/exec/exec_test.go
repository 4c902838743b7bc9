package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/failure"
)

type state struct {
	in    int
	out   int
	calls int
}

func TestRunRecordsSpansInOrder(t *testing.T) {
	var usageCalls int
	usage := func() (int, int, int) { return usageCalls, usageCalls * 10, usageCalls * 2 }
	st := &state{in: 7}
	spans, err := Run(context.Background(), st, Options{Usage: usage},
		Stage[state]{
			Name: "first",
			Run: func(ctx context.Context, s *state) error {
				usageCalls += 2
				s.out = s.in * 2
				return nil
			},
			InputSize:  func(s *state) int { return s.in },
			OutputSize: func(s *state) int { return s.out },
		},
		Stage[state]{
			Name: "second",
			Run: func(ctx context.Context, s *state) error {
				usageCalls++
				s.out++
				return nil
			},
			OutputSize: func(s *state) int { return s.out },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Stage != "first" || spans[1].Stage != "second" {
		t.Errorf("span order: %q, %q", spans[0].Stage, spans[1].Stage)
	}
	if spans[0].InputSize != 7 || spans[0].OutputSize != 14 {
		t.Errorf("first sizes = %d/%d, want 7/14", spans[0].InputSize, spans[0].OutputSize)
	}
	if spans[0].LLMCalls != 2 || spans[1].LLMCalls != 1 {
		t.Errorf("per-stage calls = %d/%d, want 2/1", spans[0].LLMCalls, spans[1].LLMCalls)
	}
	if spans[0].PromptTokens != 20 || spans[1].PromptTokens != 10 {
		t.Errorf("per-stage prompt tokens = %d/%d", spans[0].PromptTokens, spans[1].PromptTokens)
	}
	if spans[1].Offset < spans[0].Offset {
		t.Errorf("offsets not monotonic: %v then %v", spans[0].Offset, spans[1].Offset)
	}
	if st.out != 15 {
		t.Errorf("state out = %d, want 15", st.out)
	}
}

func TestRunStopsAtFailingStage(t *testing.T) {
	boom := errors.New("boom")
	st := &state{}
	spans, err := Run(context.Background(), st, Options{},
		Stage[state]{Name: "ok", Run: func(ctx context.Context, s *state) error { return nil }},
		Stage[state]{Name: "fails", Run: func(ctx context.Context, s *state) error { return boom }},
		Stage[state]{Name: "never", Run: func(ctx context.Context, s *state) error {
			t.Error("stage after failure ran")
			return nil
		}},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	var stageErr *StageError
	if !errors.As(err, &stageErr) || stageErr.Stage != "fails" {
		t.Fatalf("want StageError for %q, got %v", "fails", err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (failing stage included)", len(spans))
	}
	if spans[1].Err != failure.Upstream {
		t.Errorf("failing span class = %q, want %q", spans[1].Err, failure.Upstream)
	}
}

func TestRunStageTimeout(t *testing.T) {
	st := &state{}
	spans, err := Run(context.Background(), st, Options{DefaultTimeout: 5 * time.Millisecond},
		Stage[state]{Name: "slow", Run: func(ctx context.Context, s *state) error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Second):
				return nil
			}
		}},
	)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if spans[0].Err != failure.Deadline {
		t.Errorf("span class = %q, want deadline", spans[0].Err)
	}
}

func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := &state{}
	spans, err := Run(ctx, st, Options{},
		Stage[state]{Name: "s", Run: func(ctx context.Context, s *state) error { return ctx.Err() }},
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if spans[0].Err != failure.Canceled {
		t.Errorf("span class = %q, want canceled", spans[0].Err)
	}
}

// TestClassify: Run stamps a failing stage's span with failure.Of's
// class of the stage's error, a Classer's own class included, and leaves
// a stage that succeeded unclassed.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want failure.Class
	}{
		{nil, failure.None},
		{context.Canceled, failure.Canceled},
		{context.DeadlineExceeded, failure.Deadline},
		{failure.Wrap(failure.Budget, errors.New("spent")), failure.Budget},
		{errors.New("x"), failure.Upstream},
	}
	for _, c := range cases {
		spans, _ := Run(context.Background(), &state{}, Options{},
			Stage[state]{Name: "s", Run: func(ctx context.Context, s *state) error { return c.err }})
		if got := spans[0].Err; got != c.want {
			t.Errorf("span class for %v = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestRunDeadlineBindsNonContextStage: a stage that never consults its
// context still fails its span when it runs past the stage deadline.
func TestRunDeadlineBindsNonContextStage(t *testing.T) {
	st := &state{}
	spans, err := Run(context.Background(), st, Options{DefaultTimeout: 5 * time.Millisecond},
		Stage[state]{Name: "oblivious", Run: func(ctx context.Context, s *state) error {
			time.Sleep(30 * time.Millisecond) // ignores ctx entirely
			return nil
		}},
		Stage[state]{Name: "never", Run: func(ctx context.Context, s *state) error {
			t.Error("stage after a blown deadline ran")
			return nil
		}},
	)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if len(spans) != 1 || spans[0].Err != failure.Deadline {
		t.Fatalf("spans = %+v, want one deadline-classed span", spans)
	}
}
