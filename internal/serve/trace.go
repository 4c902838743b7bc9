package serve

import (
	"context"

	"repro/internal/answer"
	"repro/internal/trace"
)

// WithTrace records every request flowing through the stack — success or
// failure — into a trace store. Place it outside the cache and
// singleflight layers so the record captures what the serving stack
// actually did (cache hits, shared runs) alongside the result's substrate
// epoch; those three fields are what lets replay diffs tell substrate
// churn and cache effects apart from method regressions.
//
// Because a record carries the run's graphs and spans, WithTrace clears
// the request's Info.OmitTrace: below it every request is a trace reader,
// and cache hits keep serving full entries.
//
// kgLabel names the KG source this answerer is bound to (the query itself
// does not carry it). A nil store yields a no-op middleware. Append
// failures are deliberately swallowed: tracing is observability, and a
// full disk must degrade recording, never answering (the store's Dropped
// stat still counts the loss).
func WithTrace(store *trace.FileStore, kgLabel string) Middleware {
	return func(inner answer.Answerer) answer.Answerer {
		if store == nil {
			return inner
		}
		return &tracedAnswerer{named: named{inner}, store: store, kg: kgLabel}
	}
}

type tracedAnswerer struct {
	named
	store *trace.FileStore
	kg    string
}

func (a *tracedAnswerer) Answer(ctx context.Context, q answer.Query) (answer.Result, error) {
	// The cache/singleflight layers report what they did through the
	// request Info; attach one ourselves when the front door didn't, so
	// traced requests outside an HTTP handler (bench cells, replay
	// recording) still capture the cache-hit flag.
	info := infoFrom(ctx)
	if info == nil {
		ctx, info = Attach(ctx)
	}
	info.OmitTrace = false // the record below reads the trace
	res, err := a.inner.Answer(ctx, q)
	_, _ = a.store.Append(trace.Build(q, res, err, trace.Meta{
		KG:       a.kg,
		CacheHit: info.CacheHit,
		Shared:   info.Shared,
	}))
	return res, err
}
