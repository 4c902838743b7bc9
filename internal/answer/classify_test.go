package answer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/failure"
)

// TestClassifyTable drives failure.Of through every class a run's error
// can have, bare and wrapped (serving layers almost always see wrapped
// errors: handlers add context with %w, batch items annotate with their
// index, and so on): the context's two, this package's typed errors, and
// anything else.
func TestClassifyTable(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", err)) }
	cases := []struct {
		name string
		err  error
		want failure.Class
	}{
		{"nil", nil, failure.None},
		{"canceled", context.Canceled, failure.Canceled},
		{"canceled wrapped", wrap(context.Canceled), failure.Canceled},
		{"deadline", context.DeadlineExceeded, failure.Deadline},
		{"deadline wrapped", wrap(context.DeadlineExceeded), failure.Deadline},
		{"unknown method", &UnknownMethodError{Name: "nope"}, failure.UnknownMethod},
		{"unknown method wrapped", wrap(&UnknownMethodError{Name: "nope"}), failure.UnknownMethod},
		{"invalid query", &InvalidQueryError{Reason: "empty"}, failure.InvalidQuery},
		{"invalid query wrapped", wrap(&InvalidQueryError{Reason: "empty"}), failure.InvalidQuery},
		{"plain upstream", errors.New("llm transport broke"), failure.Upstream},
		{"upstream wrapped", wrap(errors.New("llm transport broke")), failure.Upstream},
		{"joined non-context", errors.Join(errors.New("a"), errors.New("b")), failure.Upstream},
		{"joined with canceled", errors.Join(errors.New("a"), context.Canceled), failure.Canceled},
		// A deadline outranks a cancellation, which may be its consequence.
		{"deadline joined with canceled", errors.Join(context.Canceled, wrap(context.DeadlineExceeded)), failure.Deadline},
		// Context errors outrank typed errors: a cancelled run that also
		// wraps an InvalidQueryError surfaces as cancellation.
		{"canceled wrapping typed", fmt.Errorf("%w: %w", context.Canceled, &InvalidQueryError{Reason: "x"}), failure.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := failure.Of(tc.err); got != tc.want {
				t.Errorf("failure.Of(%v) = %q, want %q", tc.err, got, tc.want)
			}
		})
	}
}

// TestClassifyErrorMessages pins the typed errors' rendered messages,
// which serving responses expose verbatim.
func TestClassifyErrorMessages(t *testing.T) {
	if msg := (&UnknownMethodError{Name: "zap"}).Error(); !strings.Contains(msg, `"zap"`) {
		t.Errorf("UnknownMethodError message %q should name the method", msg)
	}
	if msg := (&InvalidQueryError{Reason: "empty question text"}).Error(); !strings.Contains(msg, "empty question text") {
		t.Errorf("InvalidQueryError message %q should carry the reason", msg)
	}
}
