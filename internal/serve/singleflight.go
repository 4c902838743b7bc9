package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/answer"
	"repro/internal/failure"
)

// Group coalesces concurrent identical queries: the first caller (the
// leader) runs the underlying pipeline, everyone else (followers) waits
// and shares the leader's outcome. Distinct keys never wait on each other.
type Group struct {
	mu      sync.Mutex
	flights map[string]*flight

	runs   atomic.Int64 // leader executions
	shared atomic.Int64 // follower joins
}

// flight is one in-progress run.
type flight struct {
	done chan struct{}
	res  answer.Result
	err  error
}

// NewGroup returns an empty singleflight group.
func NewGroup() *Group {
	return &Group{flights: make(map[string]*flight)}
}

// GroupStats is a point-in-time dedup counters snapshot.
type GroupStats struct {
	Runs   int64 `json:"runs"`
	Shared int64 `json:"shared"`
}

// Stats snapshots the counters. Safe on a nil group (all zeros).
func (g *Group) Stats() GroupStats {
	if g == nil {
		return GroupStats{}
	}
	return GroupStats{Runs: g.runs.Load(), Shared: g.shared.Load()}
}

// Do runs fn once per key among concurrent callers. A follower whose own
// context is still live does not inherit the leader's cancellation: if the
// shared outcome is a context error, the follower retries with a fresh
// flight instead of failing through no fault of its own.
func (g *Group) Do(ctx context.Context, key string, fn func() (answer.Result, error)) (answer.Result, bool, error) {
	for {
		g.mu.Lock()
		if f, ok := g.flights[key]; ok {
			g.mu.Unlock()
			select {
			case <-ctx.Done():
				return answer.Result{}, false, ctx.Err()
			case <-f.done:
			}
			if class := failure.Of(f.err); (class == failure.Canceled || class == failure.Deadline) && ctx.Err() == nil {
				// The leader was cancelled but this caller wasn't:
				// take another lap rather than surfacing its error.
				continue
			}
			g.shared.Add(1)
			return f.res, true, f.err
		}
		f := &flight{done: make(chan struct{})}
		g.flights[key] = f
		g.mu.Unlock()

		g.runs.Add(1)
		// Clean up even if fn panics: otherwise the flight entry leaks and
		// every future identical query blocks on f.done forever. Followers
		// see an error; the panic itself propagates on the leader's stack.
		var panicked any
		func() {
			defer func() {
				if r := recover(); r != nil {
					panicked = r
					f.err = fmt.Errorf("serve: singleflight leader panicked: %v", r)
				}
				g.mu.Lock()
				delete(g.flights, key)
				g.mu.Unlock()
				close(f.done)
			}()
			f.res, f.err = fn()
		}()
		if panicked != nil {
			panic(panicked)
		}
		return f.res, false, f.err
	}
}

// WithSingleflight dedups concurrent identical queries onto one
// underlying run. A nil group yields a no-op middleware. scope plays the
// same role as in WithCache (nil meaning the empty namespace): it keeps
// identical questions against different substrate bindings — or different
// epochs of the same one — from coalescing onto one run.
func WithSingleflight(g *Group, scope ScopeFunc) Middleware {
	return func(inner answer.Answerer) answer.Answerer {
		if g == nil {
			return inner
		}
		return &dedupAnswerer{named: named{inner}, group: g, scope: scopeOrEmpty(scope)}
	}
}

type dedupAnswerer struct {
	named
	group *Group
	scope ScopeFunc
}

func (a *dedupAnswerer) Answer(ctx context.Context, q answer.Query) (answer.Result, error) {
	start := time.Now()
	res, shared, err := a.group.Do(ctx, key(a.scope()+sepTrace, a.inner, q), func() (answer.Result, error) {
		return a.inner.Answer(ctx, q)
	})
	if shared {
		if info := infoFrom(ctx); info != nil {
			info.Shared = true
			if info.OmitTrace {
				// Nobody will read it: drop the leader's trace rather
				// than deep-copy it.
				res.Trace = nil
			}
		}
		// Mirror the cache middleware on both counts: the upstream cost
		// belongs to the leader's response alone, the follower's elapsed
		// time is how long it actually waited, and the result is an
		// isolated copy — the leader and every follower would otherwise
		// share one Trace pointer, so any of them mutating it would
		// corrupt the others.
		res = res.Clone()
		res.Elapsed = time.Since(start)
		res.LLMCalls = 0
		res.PromptTokens = 0
		res.CompletionTokens = 0
	}
	return res, err
}
