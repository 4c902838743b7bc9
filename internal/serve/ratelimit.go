package serve

import (
	"container/list"
	"math"
	"sync"
	"time"
)

// Clock supplies the current time; injectable so limiter tests can drive
// refill deterministically (including skew: a clock that goes backwards
// must never mint tokens).
type Clock func() time.Time

// LimiterConfig sizes a per-client token-bucket rate limiter.
type LimiterConfig struct {
	// Rate is the steady-state allowance in requests per second per
	// client identity. <= 0 disables limiting: every Allow succeeds.
	Rate float64
	// Burst is the bucket capacity — how many requests a client may send
	// back-to-back before the steady rate applies. < 1 is clamped to 1 so
	// an enabled limiter can always admit something.
	Burst int
	// MaxClients bounds the client-identity table; when full, the stalest
	// bucket is evicted (a returning client restarts with a full bucket —
	// strictly more permissive, never less). <= 0 means 4096.
	Clock      Clock
	MaxClients int
}

// Limiter is a per-client token-bucket rate limiter keyed by an opaque
// client identity (API key, remote address). Safe for concurrent use.
type Limiter struct {
	rate       float64
	burst      float64
	maxClients int
	now        Clock

	mu      sync.Mutex
	buckets map[string]*list.Element
	order   *list.List // of *bucket; front = most recently refilled

	allowed int64
	limited int64
}

// bucket is one client's token balance at its last refill instant.
type bucket struct {
	client string
	tokens float64
	last   time.Time
}

// NewLimiter builds a limiter. A Rate <= 0 yields a disabled limiter
// (Allow always succeeds, nothing is tracked).
func NewLimiter(cfg LimiterConfig) *Limiter {
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = 4096
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Limiter{
		rate:       cfg.Rate,
		burst:      float64(cfg.Burst),
		maxClients: cfg.MaxClients,
		now:        cfg.Clock,
		buckets:    map[string]*list.Element{},
		order:      list.New(),
	}
}

// Enabled reports whether the limiter enforces anything.
func (l *Limiter) Enabled() bool { return l != nil && l.rate > 0 }

// Allow spends one token from the client's bucket. When the bucket is
// empty it refuses and reports how long until the next token accrues —
// the Retry-After the caller should surface.
func (l *Limiter) Allow(client string) (ok bool, retryAfter time.Duration) {
	if !l.Enabled() {
		return true, 0
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	var b *bucket
	if el, ok := l.buckets[client]; ok {
		b = el.Value.(*bucket)
		// Refill from elapsed time. A backwards-moving clock (skew, NTP
		// step) yields a negative delta that must not drain or mint
		// tokens; the bucket just re-anchors at the new instant.
		if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
			b.tokens = math.Min(l.burst, b.tokens+elapsed*l.rate)
		}
		b.last = now
		l.order.MoveToFront(el)
	} else {
		if len(l.buckets) >= l.maxClients {
			l.evictStalest()
		}
		b = &bucket{client: client, tokens: l.burst, last: now}
		l.buckets[client] = l.order.PushFront(b)
	}
	if b.tokens >= 1 {
		b.tokens--
		l.allowed++
		return true, 0
	}
	l.limited++
	return false, l.retryAfter(b)
}

// retryAfter is the time until the bucket's next whole token at the
// steady rate. Callers hold l.mu.
func (l *Limiter) retryAfter(b *bucket) time.Duration {
	deficit := 1 - b.tokens
	return time.Duration(deficit / l.rate * float64(time.Second))
}

// evictStalest drops the least recently refilled bucket: the back of the
// touch order, so it is O(1). Once the table is full this runs for every
// unseen identity — a client rotating API keys — under the lock every
// request takes, which is why it must not walk the table. Callers hold
// l.mu.
func (l *Limiter) evictStalest() {
	stalest := l.order.Back()
	l.order.Remove(stalest)
	delete(l.buckets, stalest.Value.(*bucket).client)
}

// LimiterStats is a point-in-time limiter snapshot.
type LimiterStats struct {
	// Rate / Burst echo the configuration (Rate 0 = disabled).
	Rate  float64 `json:"rate"`
	Burst int     `json:"burst"`
	// Clients is the number of tracked client identities.
	Clients int `json:"clients"`
	// Allowed / Limited count Allow outcomes.
	Allowed int64 `json:"allowed"`
	Limited int64 `json:"limited"`
}

// Stats snapshots the limiter. Safe on nil (all zeros).
func (l *Limiter) Stats() LimiterStats {
	if l == nil {
		return LimiterStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return LimiterStats{
		Rate:    l.rate,
		Burst:   int(l.burst),
		Clients: len(l.buckets),
		Allowed: l.allowed,
		Limited: l.limited,
	}
}

// RetryAfterSeconds renders a Retry-After duration as the header's
// whole-seconds form, rounding up so a client that waits exactly the
// advertised time is never refused again, with a floor of 1.
func RetryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		return 1
	}
	return secs
}
