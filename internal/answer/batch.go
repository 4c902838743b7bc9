package answer

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/failure"
)

// BatchItem is one query's outcome inside a batch. Failures are isolated
// per item: Err and Class are set and the remaining items still run.
type BatchItem struct {
	// Index is the query's position in the input slice.
	Index int
	// Query echoes the input.
	Query Query
	// Result is valid when Err is nil.
	Result Result
	// Err is this item's failure, if any.
	Err error
	// Class is Err's failure class (failure.None when Err is nil).
	Class failure.Class
}

// batchOptions configure Batch.
type batchOptions struct {
	workers     int
	itemTimeout time.Duration
}

// BatchOption mutates batch execution settings.
type BatchOption func(*batchOptions)

// Concurrency sets the worker-pool size (default: GOMAXPROCS, capped at
// the batch size).
func Concurrency(n int) BatchOption {
	return func(o *batchOptions) { o.workers = n }
}

// ItemTimeout bounds each item's run individually: the item's clock
// starts when its worker picks it up, so one slow item times out alone
// (its entry reports failure.Deadline) instead of a shared batch deadline
// expiring and failing every item still in flight behind it.
func ItemTimeout(d time.Duration) BatchOption {
	return func(o *batchOptions) { o.itemTimeout = d }
}

// Batch answers every query with a worker pool and per-item error
// isolation: one failing query marks only its own item. Cancelling ctx
// stops new work promptly — items not yet started are marked with the
// context's error — and the returned slice always has one entry per input
// query, in input order.
func Batch(ctx context.Context, ans Answerer, queries []Query, opts ...BatchOption) []BatchItem {
	o := batchOptions{workers: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers < 1 {
		o.workers = 1
	}
	if o.workers > len(queries) {
		o.workers = len(queries)
	}

	items := make([]BatchItem, len(queries))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				item := BatchItem{Index: i, Query: queries[i]}
				if err := ctx.Err(); err != nil {
					item.Err = err
				} else {
					itemCtx, cancel := ctx, context.CancelFunc(func() {})
					if o.itemTimeout > 0 {
						itemCtx, cancel = context.WithTimeout(ctx, o.itemTimeout)
					}
					item.Result, item.Err = ans.Answer(itemCtx, queries[i])
					cancel()
				}
				item.Class = failure.Of(item.Err)
				items[i] = item
			}
		}()
	}
	for i := range queries {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return items
}

// FirstError returns the first (by input order) item error in a batch, or
// nil — the convenience for callers that treat any failure as fatal.
func FirstError(items []BatchItem) error {
	for i := range items {
		if items[i].Err != nil {
			return items[i].Err
		}
	}
	return nil
}
