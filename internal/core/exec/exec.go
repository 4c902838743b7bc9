// Package exec is the staged execution engine underneath every QA method:
// a composition of typed Stages run sequentially over a shared state, each
// stage carrying its own deadline, usage accounting and structured trace
// span. The PG&AKV pipeline (internal/core) and every baseline
// (internal/baselines) are compositions of these primitives, so per-stage
// observability — latency, LLM calls, token flow, input/output sizes,
// error class — comes for free in every trace, and any future per-stage
// optimisation (caching one stage, parallelising another, skipping a stage
// under budget pressure) is a local change to one composition.
//
// # Invariants
//
//   - Span ownership: Run returns a fresh []Span the caller owns
//     outright — spans alias nothing inside the engine, and callers that
//     embed them in shared results (answer traces, caches) copy them
//     again (Trace.Clone) before sharing. No two consumers ever hold the
//     same Span backing array.
//   - Partial spans survive errors: a failed run still returns every
//     span recorded up to and including the failing stage, with the
//     failure's class on the last span, so serving layers can attribute
//     the error without re-running anything.
//   - Usage attribution is differential: each span's LLM counters are
//     the delta of the runner's Usage hook across that stage, so stage
//     sums always reconcile with the run's totals.
package exec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/failure"
)

// Span is the trace record of one executed stage — the evidence-first
// artefact every run emits, whether it succeeded or not.
type Span struct {
	// Stage is the stage's name within its composition.
	Stage string `json:"stage"`
	// Offset is how far into the run the stage started.
	Offset time.Duration `json:"offset"`
	// Latency is the stage's wall-clock duration.
	Latency time.Duration `json:"latency"`
	// LLMCalls / PromptTokens / CompletionTokens account the LLM usage
	// attributable to this stage (from the runner's Usage hook).
	LLMCalls         int `json:"llm_calls"`
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	// InputSize / OutputSize are stage-defined measures of the state before
	// and after the stage ran (triples, hits, characters — the stage picks
	// the unit that makes its work legible).
	InputSize  int `json:"input_size"`
	OutputSize int `json:"output_size"`
	// Err is the stage's failure class (failure.None when it succeeded).
	Err failure.Class `json:"err,omitempty"`
}

// Stage is one unit of a composition: a named piece of work over the
// shared state S, with optional size probes.
type Stage[S any] struct {
	// Name identifies the stage in spans and metrics.
	Name string
	// Run does the work. The context carries the stage deadline.
	Run func(ctx context.Context, s *S) error
	// InputSize / OutputSize, when set, measure the state immediately
	// before and after Run for the span.
	InputSize  func(s *S) int
	OutputSize func(s *S) int
}

// UsageFunc snapshots cumulative LLM usage (calls, prompt tokens,
// completion tokens); the runner diffs it around each stage to attribute
// usage per span.
type UsageFunc func() (calls, promptTokens, completionTokens int)

// SpanObserver receives each span as its stage completes — success or
// failure — before the next stage starts. Attach one to the request
// context with WithSpanObserver; streaming front doors (SSE progress on
// /v1/answer) use it to emit per-stage events while the run is still in
// flight. The observer is called synchronously on the run's goroutine
// with a copy of the span, so implementations must be fast or hand off
// to a channel; a slow observer delays the composition itself.
type SpanObserver func(Span)

type observerKey struct{}

// WithSpanObserver attaches a per-stage span observer to the context.
// It composes with any observer already attached (both are called, outer
// last), so middleware layers can observe without clobbering the caller.
func WithSpanObserver(ctx context.Context, fn SpanObserver) context.Context {
	if fn == nil {
		return ctx
	}
	if prev := ObserverFrom(ctx); prev != nil {
		inner := prev
		outer := fn
		fn = func(sp Span) {
			inner(sp)
			outer(sp)
		}
	}
	return context.WithValue(ctx, observerKey{}, fn)
}

// ObserverFrom returns the context's span observer, nil when none.
func ObserverFrom(ctx context.Context) SpanObserver {
	fn, _ := ctx.Value(observerKey{}).(SpanObserver)
	return fn
}

// Options configure one Run.
type Options struct {
	// DefaultTimeout bounds each stage's execution; 0 means unbounded
	// (the caller's context still applies throughout).
	DefaultTimeout time.Duration
	// Usage, when set, attributes LLM usage to spans.
	Usage UsageFunc
}

// StageError wraps a stage failure with the stage's name so callers can
// attribute it; errors.Is/As see through it to the cause.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return fmt.Sprintf("stage %q: %v", e.Stage, e.Err) }

// Unwrap exposes the cause.
func (e *StageError) Unwrap() error { return e.Err }

// Run executes the stages in order over the state, recording one span per
// executed stage. On a stage failure it stops and returns the spans so far
// (the failing stage's span included, its Err set) and the error wrapped
// in a *StageError. A stage whose deadline expires fails with
// context.DeadlineExceeded even when the caller's context is still live.
func Run[S any](ctx context.Context, state *S, o Options, stages ...Stage[S]) ([]Span, error) {
	spans := make([]Span, 0, len(stages))
	observe := ObserverFrom(ctx)
	runStart := time.Now()
	for _, st := range stages {
		span := Span{Stage: st.Name, Offset: time.Since(runStart)}
		if st.InputSize != nil {
			span.InputSize = st.InputSize(state)
		}
		var calls0, pt0, ct0 int
		if o.Usage != nil {
			calls0, pt0, ct0 = o.Usage()
		}
		stageCtx, cancel := ctx, context.CancelFunc(func() {})
		if o.DefaultTimeout > 0 {
			stageCtx, cancel = context.WithTimeout(ctx, o.DefaultTimeout)
		}
		start := time.Now()
		err := st.Run(stageCtx, state)
		if err == nil {
			// A stage that never consults its context (pure-CPU retrieval,
			// aggregation) must still be charged for blowing its deadline:
			// read the context before cancel() — after it, Err() reports
			// Canceled unconditionally.
			err = stageCtx.Err()
		}
		cancel()
		span.Latency = time.Since(start)
		if o.Usage != nil {
			calls1, pt1, ct1 := o.Usage()
			span.LLMCalls = calls1 - calls0
			span.PromptTokens = pt1 - pt0
			span.CompletionTokens = ct1 - ct0
		}
		if st.OutputSize != nil {
			span.OutputSize = st.OutputSize(state)
		}
		if err != nil {
			span.Err = failure.Of(err)
			spans = append(spans, span)
			if observe != nil {
				observe(span)
			}
			return spans, &StageError{Stage: st.Name, Err: err}
		}
		spans = append(spans, span)
		if observe != nil {
			observe(span)
		}
	}
	return spans, nil
}
