package serve

import (
	"strconv"
	"testing"
	"time"
)

// fakeClock is an injectable, manually-advanced Clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) rewind(d time.Duration)  { c.t = c.t.Add(-d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

// TestLimiterRefillEdges drives the token bucket through its refill edge
// cases with an injected clock.
func TestLimiterRefillEdges(t *testing.T) {
	type step struct {
		advance time.Duration // clock movement before the call (negative = skew backwards)
		wantOK  bool
		// wantRetryAtLeast/AtMost bound the refusal's Retry-After; both
		// zero means "don't check".
		wantRetryAtLeast time.Duration
		wantRetryAtMost  time.Duration
	}
	cases := []struct {
		name  string
		rate  float64
		burst int
		steps []step
	}{
		{
			// Rate <= 0 disables the limiter entirely: the documented
			// production semantic of `-rate 0`.
			name: "zero rate means disabled", rate: 0, burst: 1,
			steps: []step{{wantOK: true}, {wantOK: true}, {wantOK: true}},
		},
		{
			name: "negative rate means disabled", rate: -3, burst: 1,
			steps: []step{{wantOK: true}, {wantOK: true}},
		},
		{
			// burst=1: one immediate request, then strictly one per period.
			name: "burst one enforces the steady rate", rate: 2, burst: 1,
			steps: []step{
				{wantOK: true},
				{wantOK: false, wantRetryAtLeast: 400 * time.Millisecond, wantRetryAtMost: 500 * time.Millisecond},
				{advance: 499 * time.Millisecond, wantOK: false},
				{advance: 1 * time.Millisecond, wantOK: true}, // exactly one period since the spend
				{wantOK: false},
			},
		},
		{
			// A full burst drains back-to-back, then refills at the rate.
			name: "burst drains then refills", rate: 1, burst: 3,
			steps: []step{
				{wantOK: true}, {wantOK: true}, {wantOK: true},
				{wantOK: false, wantRetryAtLeast: time.Second, wantRetryAtMost: time.Second},
				{advance: 2 * time.Second, wantOK: true},
				{wantOK: true},
				{wantOK: false},
			},
		},
		{
			// Refill is capped at burst no matter how long the idle gap.
			name: "idle gap never exceeds burst", rate: 10, burst: 2,
			steps: []step{
				{advance: time.Hour, wantOK: true},
				{wantOK: true},
				{wantOK: false},
			},
		},
		{
			// A backwards-moving clock must neither mint tokens nor panic;
			// the bucket re-anchors and refills from the earlier instant.
			name: "clock skew backwards mints nothing", rate: 1, burst: 1,
			steps: []step{
				{wantOK: true},
				{advance: -30 * time.Second, wantOK: false},
				{wantOK: false},
				{advance: time.Second, wantOK: true}, // one period after the re-anchor
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			l := NewLimiter(LimiterConfig{Rate: tc.rate, Burst: tc.burst, Clock: clk.now})
			for i, s := range tc.steps {
				if s.advance > 0 {
					clk.advance(s.advance)
				} else if s.advance < 0 {
					clk.rewind(-s.advance)
				}
				ok, retry := l.Allow("client")
				if ok != s.wantOK {
					t.Fatalf("step %d: Allow = %v, want %v", i, ok, s.wantOK)
				}
				if ok && retry != 0 {
					t.Fatalf("step %d: allowed call reported Retry-After %v", i, retry)
				}
				if s.wantRetryAtLeast > 0 && retry < s.wantRetryAtLeast {
					t.Fatalf("step %d: Retry-After %v < %v", i, retry, s.wantRetryAtLeast)
				}
				if s.wantRetryAtMost > 0 && retry > s.wantRetryAtMost {
					t.Fatalf("step %d: Retry-After %v > %v", i, retry, s.wantRetryAtMost)
				}
			}
		})
	}
}

func TestLimiterIsolatesClients(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 1, Clock: clk.now})
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("first request from a refused")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("second request from a allowed inside the period")
	}
	// b's bucket is untouched by a's spending.
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("first request from b refused")
	}
	st := l.Stats()
	if st.Allowed != 2 || st.Limited != 1 || st.Clients != 2 {
		t.Fatalf("stats = %+v, want allowed=2 limited=1 clients=2", st)
	}
}

func TestLimiterEvictsStalestClient(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 1, Clock: clk.now, MaxClients: 2})
	l.Allow("a")
	clk.advance(time.Second)
	l.Allow("b")
	clk.advance(time.Second)
	l.Allow("c") // table full: "a" (stalest) is evicted
	if got := l.Stats().Clients; got != 2 {
		t.Fatalf("clients = %d, want 2", got)
	}
	// "a" returns with a fresh bucket (more permissive, never less).
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("evicted client refused on return")
	}
}

// TestLimiterFullTableEvictsLeastRecentlyRefilled: with the table full,
// every unseen identity evicts exactly the bucket whose last refill is
// oldest — a touch moves a bucket out of harm's way — and nothing else.
// An evicted client returns with a full bucket; one that was kept is
// still out of tokens.
func TestLimiterFullTableEvictsLeastRecentlyRefilled(t *testing.T) {
	clk := newFakeClock()
	// One token per client and a rate too low to refill within the test.
	l := NewLimiter(LimiterConfig{Rate: 1e-6, Burst: 1, Clock: clk.now, MaxClients: 3})
	allow := func(client string) bool {
		clk.advance(time.Second)
		ok, _ := l.Allow(client)
		return ok
	}
	for _, c := range []string{"a", "b", "c"} {
		if !allow(c) {
			t.Fatalf("first request from %s refused", c)
		}
	}
	if allow("a") { // touches a: b is now the stalest
		t.Fatal("a's second request allowed: its bucket should be empty")
	}
	if !allow("d") { // table full: evicts b
		t.Fatal("new identity refused")
	}
	if got := l.Stats().Clients; got != 3 {
		t.Fatalf("clients = %d, want 3", got)
	}
	// Refill order is now c, a, d (oldest first). a and c were kept, so
	// they are still empty; asking refills (touches) them, leaving d the
	// stalest.
	if allow("a") || allow("c") {
		t.Fatal("a kept client came back with a fresh bucket: the wrong bucket was evicted")
	}
	if !allow("b") { // b was evicted: fresh bucket (and d goes)
		t.Fatal("b was not the evicted identity")
	}
	if !allow("d") { // d was evicted by b's return: fresh again (and a goes)
		t.Fatal("d was not evicted by b's return")
	}
	if allow("c") {
		t.Fatal("c was evicted out of turn")
	}
	if got := l.Stats().Clients; got != 3 {
		t.Fatalf("clients = %d, want 3", got)
	}
}

// BenchmarkLimiterFullTable is the cost an unseen identity pays once the
// table holds MaxClients buckets — every request of a client that rotates
// its API key — under the lock every other request takes. It was a walk
// of all 4 096 buckets.
func BenchmarkLimiterFullTable(b *testing.B) {
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 1})
	for i := 0; i < 4096; i++ {
		l.Allow("resident-" + strconv.Itoa(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Allow("rotating-" + strconv.Itoa(i))
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{2500 * time.Millisecond, 3},
		{time.Minute, 60},
	}
	for _, tc := range cases {
		if got := RetryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}
