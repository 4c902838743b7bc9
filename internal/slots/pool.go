// Package slots is the server's one bounded slot pool: a counting
// semaphore whose waiters are granted slots first come, first served.
// llm.Scheduler bounds model calls with it, and serve.Admission bounds
// in-flight answer requests with it. It imports nothing from the module,
// so any layer can use it.
//
// Invariants:
//
//   - A released slot passes straight to the longest-waiting waiter
//     without becoming free, so an arrival never overtakes the queue.
//   - A waiter whose context ends gives back its place in the queue, and
//     the slot when a release granted it in the same instant: no slot
//     leaks.
//   - Wait statistics count grants only, taken when the slot is granted,
//     so waiters that give up never deflate the mean.
package slots

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
)

// ErrFull reports that every slot was taken and the queue was at its
// bound; the caller was refused without waiting.
var ErrFull = errors.New("slots: pool and queue full")

// Pool is a bounded set of slots with a FIFO waiter queue. Safe for
// concurrent use.
type Pool struct {
	size     int
	maxQueue int

	mu       sync.Mutex
	inUse    int
	queue    []chan struct{}
	admitted int64
	waited   int64
	shed     int64
	waitSum  time.Duration
	maxWait  time.Duration
}

// New builds a pool of size slots whose queue holds at most maxQueue
// waiters; at maxQueue <= 0 a full pool refuses arrivals at once. A size
// <= 0 bounds nothing: every Acquire succeeds at once.
func New(size, maxQueue int) *Pool {
	return &Pool{size: size, maxQueue: maxQueue}
}

// Acquire takes a slot: at once when one is free, else after queueing
// until a Release hands one over. It returns ErrFull when the queue is at
// its bound, and ctx.Err() when ctx ends while queued. Every nil return
// must be paired with exactly one Release.
func (p *Pool) Acquire(ctx context.Context) error {
	p.mu.Lock()
	if p.size <= 0 || p.inUse < p.size {
		p.inUse++
		p.admitted++
		p.mu.Unlock()
		return nil
	}
	if len(p.queue) >= p.maxQueue {
		p.shed++
		p.mu.Unlock()
		return ErrFull
	}
	ready := make(chan struct{})
	p.queue = append(p.queue, ready)
	p.mu.Unlock()

	start := time.Now()
	select {
	case <-ready:
		wait := time.Since(start)
		p.mu.Lock()
		p.admitted++
		p.waited++
		p.waitSum += wait
		p.maxWait = max(p.maxWait, wait)
		p.mu.Unlock()
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		i := slices.Index(p.queue, ready)
		if i >= 0 {
			p.queue = slices.Delete(p.queue, i, i+1)
		}
		p.mu.Unlock()
		if i < 0 {
			// A Release granted the slot as ctx ended: pass it on.
			p.Release()
		}
		return ctx.Err()
	}
}

// Release returns a slot, handing it to the longest waiter if any.
func (p *Pool) Release() {
	p.mu.Lock()
	if len(p.queue) == 0 {
		p.inUse--
		p.mu.Unlock()
		return
	}
	// The slot transfers without passing through inUse.
	ready := p.queue[0]
	p.queue[0] = nil
	p.queue = p.queue[1:]
	p.mu.Unlock()
	close(ready)
}

// Stats is a point-in-time pool snapshot.
type Stats struct {
	// Size is the slot count (<= 0: unbounded); InUse the slots held and
	// Queued the waiters now in the queue.
	Size   int
	InUse  int
	Queued int
	// Admitted counts grants, Waited the grants that queued first, and
	// Shed the refusals with ErrFull.
	Admitted int64
	Waited   int64
	Shed     int64
	// WaitTotal and MaxWait are the summed and the longest queue time of
	// the Waited grants.
	WaitTotal time.Duration
	MaxWait   time.Duration
}

// Stats snapshots the pool.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Size:      p.size,
		InUse:     p.inUse,
		Queued:    len(p.queue),
		Admitted:  p.admitted,
		Waited:    p.waited,
		Shed:      p.shed,
		WaitTotal: p.waitSum,
		MaxWait:   p.maxWait,
	}
}
