package slots

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waiter is one Acquire running on its own goroutine.
type waiter struct {
	cancel context.CancelFunc
	done   chan error
}

// enqueue starts an Acquire and returns once it is queued. Every waiter
// reports on granted (its label) when it gets a slot, and on its own done.
func enqueue(t *testing.T, p *Pool, label string, granted chan<- string) waiter {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := waiter{cancel: cancel, done: make(chan error, 1)}
	before := p.Stats().Queued
	go func() {
		err := p.Acquire(ctx)
		if err == nil {
			granted <- label
		}
		w.done <- err
	}()
	waitFor(t, label+" to queue", func() bool { return p.Stats().Queued == before+1 })
	return w
}

// TestPool drives one pool per row through a script of acquires,
// cancellations and releases, then checks the counters it must have
// booked and that it ends drained: nothing in use, nothing queued, and a
// fresh Acquire served at once, so no slot leaked.
func TestPool(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name           string
		size, maxQueue int
		script         func(t *testing.T, p *Pool)
		want           Stats
	}{
		{
			name: "free slots admit at once", size: 2, maxQueue: 0,
			script: func(t *testing.T, p *Pool) {
				for i := 0; i < 2; i++ {
					if err := p.Acquire(ctx); err != nil {
						t.Fatal(err)
					}
				}
				p.Release()
				p.Release()
			},
			want: Stats{Admitted: 2},
		},
		{
			name: "size zero bounds nothing", size: 0, maxQueue: 0,
			script: func(t *testing.T, p *Pool) {
				for i := 0; i < 100; i++ {
					if err := p.Acquire(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if st := p.Stats(); st.InUse != 100 || st.Queued != 0 {
					t.Fatalf("stats = %+v, want 100 in use, none queued", st)
				}
				for i := 0; i < 100; i++ {
					p.Release()
				}
			},
			want: Stats{Admitted: 100},
		},
		{
			name: "release hands off in FIFO order", size: 1, maxQueue: 8,
			script: func(t *testing.T, p *Pool) {
				if err := p.Acquire(ctx); err != nil {
					t.Fatal(err)
				}
				granted := make(chan string, 5)
				var ws []waiter
				for i := 0; i < 5; i++ {
					ws = append(ws, enqueue(t, p, fmt.Sprint("w", i), granted))
				}
				for i, w := range ws {
					p.Release()
					if got, want := <-granted, fmt.Sprint("w", i); got != want {
						t.Fatalf("grant %d went to %s, want %s", i, got, want)
					}
					if err := <-w.done; err != nil {
						t.Fatal(err)
					}
					w.cancel()
				}
				p.Release()
			},
			want: Stats{Admitted: 6, Waited: 5},
		},
		{
			name: "the queue bound sheds", size: 1, maxQueue: 1,
			script: func(t *testing.T, p *Pool) {
				if err := p.Acquire(ctx); err != nil {
					t.Fatal(err)
				}
				granted := make(chan string, 1)
				w := enqueue(t, p, "queued", granted)
				defer w.cancel()
				if err := p.Acquire(ctx); !errors.Is(err, ErrFull) {
					t.Fatalf("third acquire: %v, want ErrFull", err)
				}
				p.Release()
				if err := <-w.done; err != nil {
					t.Fatal(err)
				}
				p.Release()
			},
			want: Stats{Admitted: 2, Waited: 1, Shed: 1},
		},
		{
			name: "no queue sheds at once", size: 1, maxQueue: 0,
			script: func(t *testing.T, p *Pool) {
				if err := p.Acquire(ctx); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					if err := p.Acquire(ctx); !errors.Is(err, ErrFull) {
						t.Fatalf("acquire on a full pool: %v, want ErrFull", err)
					}
				}
				p.Release()
			},
			want: Stats{Admitted: 1, Shed: 3},
		},
		{
			name: "a cancel while queued gives the place back", size: 1, maxQueue: 4,
			script: func(t *testing.T, p *Pool) {
				if err := p.Acquire(ctx); err != nil {
					t.Fatal(err)
				}
				granted := make(chan string, 2)
				gone := enqueue(t, p, "gone", granted)
				next := enqueue(t, p, "next", granted)
				defer next.cancel()
				gone.cancel()
				if err := <-gone.done; !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
				}
				if st := p.Stats(); st.Queued != 1 {
					t.Fatalf("queue after the cancel = %d, want 1", st.Queued)
				}
				p.Release()
				if got := <-granted; got != "next" {
					t.Fatalf("slot went to %s, want next", got)
				}
				if err := <-next.done; err != nil {
					t.Fatal(err)
				}
				p.Release()
			},
			// The cancelled waiter is no grant: it counts nowhere.
			want: Stats{Admitted: 2, Waited: 1},
		},
		{
			name: "a deadline while queued ends the wait", size: 1, maxQueue: 4,
			script: func(t *testing.T, p *Pool) {
				if err := p.Acquire(ctx); err != nil {
					t.Fatal(err)
				}
				short, cancel := context.WithTimeout(ctx, time.Millisecond)
				defer cancel()
				if err := p.Acquire(short); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("acquire past its deadline: %v, want DeadlineExceeded", err)
				}
				p.Release()
			},
			want: Stats{Admitted: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(tc.size, tc.maxQueue)
			tc.script(t, p)
			got := p.Stats()
			if got.Admitted != tc.want.Admitted || got.Waited != tc.want.Waited || got.Shed != tc.want.Shed {
				t.Errorf("admitted/waited/shed = %d/%d/%d, want %d/%d/%d",
					got.Admitted, got.Waited, got.Shed, tc.want.Admitted, tc.want.Waited, tc.want.Shed)
			}
			if got.Waited > 0 && (got.WaitTotal <= 0 || got.MaxWait <= 0 || got.MaxWait > got.WaitTotal) {
				t.Errorf("wait stats %v total / %v max for %d waits", got.WaitTotal, got.MaxWait, got.Waited)
			}
			assertDrained(t, p)
		})
	}
}

// assertDrained fails unless nothing is in use or queued and a fresh
// Acquire is served at once.
func assertDrained(t *testing.T, p *Pool) {
	t.Helper()
	if st := p.Stats(); st.InUse != 0 || st.Queued != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for i := 0; i < max(p.size, 1); i++ {
		if err := p.Acquire(ctx); err != nil {
			t.Fatalf("slot %d of a drained pool: %v", i, err)
		}
	}
	for i := 0; i < max(p.size, 1); i++ {
		p.Release()
	}
}

// TestPoolCancelRacingReleaseLeaksNoSlot lets a queued waiter's
// cancellation race the release that grants it its slot, many times
// over. Whichever wins, the slot ends up either held by the waiter (which
// then releases it) or free: the pool drains every round, and the wait
// statistics count exactly the rounds the waiter won.
func TestPoolCancelRacingReleaseLeaksNoSlot(t *testing.T) {
	p := New(1, 1)
	var won int64
	for round := 0; round < 500; round++ {
		if err := p.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- p.Acquire(ctx) }()
		waitFor(t, "the waiter to queue", func() bool { return p.Stats().Queued == 1 })
		// Even rounds end the context just before the release, odd rounds
		// concurrently with it, so both orders of the race occur.
		if round%2 == 0 {
			cancel()
		} else {
			go cancel()
		}
		p.Release()
		switch err := <-done; {
		case err == nil:
			won++
			p.Release()
		case !errors.Is(err, context.Canceled):
			t.Fatalf("round %d: %v", round, err)
		}
		cancel()
		if st := p.Stats(); st.InUse != 0 || st.Queued != 0 {
			t.Fatalf("round %d leaked: %+v", round, st)
		}
	}
	if st := p.Stats(); st.Waited != won {
		t.Errorf("waited = %d, want the %d rounds the waiter won", st.Waited, won)
	}
}

// TestPoolHammer is the race-detector hammer: goroutines acquire, hold
// briefly and release, some with contexts that end while they queue.
// The pool must never hand out more slots than it has, must account for
// every attempt exactly once, and must drain.
func TestPoolHammer(t *testing.T) {
	const (
		size       = 4
		goroutines = 32
		perG       = 100
	)
	p := New(size, 8)
	var holding, peak, granted, full, ended atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if (g+i)%3 == 0 {
					ctx, cancel = context.WithTimeout(ctx, 20*time.Microsecond)
				}
				err := p.Acquire(ctx)
				cancel()
				switch {
				case err == nil:
					granted.Add(1)
					n := holding.Add(1)
					for {
						m := peak.Load()
						if n <= m || peak.CompareAndSwap(m, n) {
							break
						}
					}
					time.Sleep(10 * time.Microsecond)
					holding.Add(-1)
					p.Release()
				case errors.Is(err, ErrFull):
					full.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					ended.Add(1)
				default:
					t.Errorf("unexpected acquire error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	if got := granted.Load() + full.Load() + ended.Load(); got != goroutines*perG {
		t.Fatalf("outcomes %d+%d+%d != %d attempts", granted.Load(), full.Load(), ended.Load(), goroutines*perG)
	}
	if peak.Load() > size {
		t.Errorf("%d slots held at once, pool has %d", peak.Load(), size)
	}
	st := p.Stats()
	if st.Admitted != granted.Load() || st.Shed != full.Load() {
		t.Errorf("pool booked admitted %d shed %d, callers saw %d and %d", st.Admitted, st.Shed, granted.Load(), full.Load())
	}
	if granted.Load() == 0 || full.Load() == 0 || st.Waited == 0 {
		t.Errorf("hammer did not reach every path: granted=%d full=%d waited=%d", granted.Load(), full.Load(), st.Waited)
	}
	assertDrained(t, p)
}
