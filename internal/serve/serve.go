// Package serve is the serving-scale middleware layer over the unified
// answer API: composable Answerer wrappers that production front doors
// (cmd/pgakvd) and the bench harness stack between callers and the
// underlying method.
//
//	scope := serve.StaticScope("gpt4/wikidata") // or a ScopeFunc that reads the epoch
//	stack := serve.Stack(ans,
//	    serve.WithMetrics(collector),         // outermost: sees every request
//	    serve.WithCache(cache, scope),        // answers repeats from memory
//	    serve.WithDeadline(),                 // arms Info.Deadline on a miss
//	    serve.WithSingleflight(group, scope), // N concurrent identical queries -> 1 run
//	)
//
// The middlewares are independent; any subset composes. Request
// introspection (did the cache hit? was the run shared?) flows through an
// Info attached to the context with Attach, so HTTP handlers can emit
// X-Cache headers and metrics can attribute LLM cost to real runs only.
// The same Info carries the request's deadline down to WithDeadline, so a
// cache hit arms no timer: only a run or a singleflight wait needs one.
//
// # Invariants
//
//   - Scope-checked, read-validated entries: the cache holds one entry per
//     (answerer, trace bit, answer.QueryKey), stamped with the caller scope
//     (ScopeFunc: model/KG binding, substrate epoch, prompt fingerprint) it
//     was filled under, and with the run's read log (answer.Reads). Under
//     the same scope an entry is a hit. Once the scope has moved — an
//     ingest, a compaction, a prompt reload — it is served only if its log
//     replays exactly against the current snapshot and prompt view, and
//     then with that snapshot's epoch; otherwise the lookup misses and the
//     fill replaces the entry. Exact by construction, not by tolerance: a
//     run reads the substrate only through what the log records (the
//     answer package's read-log contract). Epochs a reply carries stay
//     monotone, since a replayed epoch is the live one. Singleflight keys
//     still live under the scope, so runs against different epochs never
//     coalesce.
//   - Errors are never cached, and a singleflight follower whose own
//     context is still live retries past a cancelled or panicking leader
//     instead of inheriting its failure.
//   - Cached results are isolated: Put and Get deep-copy the Result's
//     Trace (graphs and stage spans), so no caller can mutate an entry
//     another caller will receive. Its PromptVersions map is not copied:
//     it is the prompt view's own map, built once per view and immutable
//     (prompts.View.Versions), so every hit shares it and nobody may
//     write to it. A trace is copied only for a caller
//     that will read it: a request whose Info says OmitTrace is stored
//     and served without one, under a key that carries the bit, so it
//     never meets — or fills — an entry a trace reader will be handed,
//     and a singleflight follower under it drops the leader's trace
//     instead of copying it. The run itself always returns its trace
//     (stage metrics and SSE stage events come from it); WithTrace, whose
//     records carry the graphs, clears the bit for everything below it.
package serve

import (
	"context"
	"time"

	"repro/internal/answer"
)

// Middleware wraps an Answerer with one serving concern.
type Middleware func(answer.Answerer) answer.Answerer

// Stack applies middlewares so that the first listed is the outermost
// layer — Stack(a, m1, m2) answers through m1(m2(a)).
func Stack(ans answer.Answerer, mws ...Middleware) answer.Answerer {
	for i := len(mws) - 1; i >= 0; i-- {
		if mws[i] != nil {
			ans = mws[i](ans)
		}
	}
	return ans
}

// Info reports what the serving stack did with one request. Attach it to
// the context before calling Answer; the middlewares fill it in.
type Info struct {
	// CacheHit is true when the answer came from the cache.
	CacheHit bool
	// CacheUsed is true when a cache middleware saw the request at all
	// (distinguishes "miss" from "no cache configured").
	CacheUsed bool
	// Shared is true when singleflight coalesced this request onto
	// another in-flight identical run.
	Shared bool
	// OmitTrace is set by the caller: true declares that Result.Trace
	// will not be read, so a cache hit or a shared run need not produce
	// one (a run that executes still returns its own). It is a property
	// of the request — the front door derives it from include_trace — and
	// the zero value keeps full results.
	OmitTrace bool
	// Deadline is set by the caller: when non-zero, WithDeadline runs
	// everything below it under this deadline. The front door stamps it
	// when the request arrives, so the clock is the request's own
	// wherever the timer is armed.
	Deadline time.Time
}

type infoKey struct{}

// Attach returns a context carrying a fresh Info for one request.
func Attach(ctx context.Context) (context.Context, *Info) {
	info := &Info{}
	return context.WithValue(ctx, infoKey{}, info), info
}

// infoFrom returns the request's Info, or nil when none was attached.
func infoFrom(ctx context.Context) *Info {
	info, _ := ctx.Value(infoKey{}).(*Info)
	return info
}

// named wraps an inner Answerer preserving its Name; middlewares embed it.
type named struct{ inner answer.Answerer }

func (n named) Name() string { return n.inner.Name() }

// ScopeFunc names the state a request's answer depends on beyond the
// query, evaluated per request. Singleflight keys live under it, so
// callers sharing one Group across answerers bound to different
// substrates (KG source, model binding) MUST use a distinct scope per
// binding or identical questions will coalesce across them. The cache
// stamps entries with it: folding the substrate epoch and prompt
// fingerprint into the scope makes every hot swap send the next lookup of
// each entry through revalidation (Cache.Get).
type ScopeFunc func() string

// StaticScope returns a ScopeFunc for a fixed namespace.
func StaticScope(s string) ScopeFunc { return func() string { return s } }

// scopeOrEmpty normalises a nil ScopeFunc to the empty namespace.
func scopeOrEmpty(scope ScopeFunc) ScopeFunc {
	if scope == nil {
		return StaticScope("")
	}
	return scope
}

// key computes the cache/singleflight identity for a query against the
// wrapped method, within a namespace: the cache middleware's own, or the
// singleflight scope. The query's own labels win so per-request model
// routing stays distinct; the bound method name is the fallback. The
// namespace ends in a separator: sepTrace, or sepOmitTrace for the
// trace-less cache entries (the separator carries the bit; QueryKey
// strips control characters from client text, so neither separator can
// be forged). Singleflight always uses sepTrace: a run produces its trace
// whoever leads it.
func key(ns string, ans answer.Answerer, q answer.Query) string {
	method := q.Method
	if method == "" {
		method = ans.Name()
	}
	return answer.PrefixedQueryKey(ns, method, q.Model, q)
}

// The namespace separators key documents.
const (
	sepTrace     = "\x02"
	sepOmitTrace = "\x03"
)

// WithDeadline runs every request whose Info carries a Deadline under
// that deadline; a request without one passes through untouched. Place it
// right below the cache, or innermost without one: a hit then arms no
// timer, while a run — and a singleflight follower's wait, which gives up
// at the follower's own deadline — is bounded as if the front door had
// armed it.
func WithDeadline() Middleware {
	return func(inner answer.Answerer) answer.Answerer {
		return deadlineAnswerer{named{inner}}
	}
}

type deadlineAnswerer struct{ named }

func (a deadlineAnswerer) Answer(ctx context.Context, q answer.Query) (answer.Result, error) {
	if info := infoFrom(ctx); info != nil && !info.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, info.Deadline)
		defer cancel()
	}
	return a.inner.Answer(ctx, q)
}
