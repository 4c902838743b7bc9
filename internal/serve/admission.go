package serve

import (
	"context"
	"errors"
	"time"

	"repro/internal/failure"
	"repro/internal/slots"
)

// ErrShed reports that the admission queue was full and the request was
// rejected before any work was admitted.
var ErrShed = failure.Wrap(failure.Shed, errors.New("serve: request shed: server over capacity"))

// ErrRateLimited reports that the client's token bucket was empty.
var ErrRateLimited = failure.Wrap(failure.RateLimited, errors.New("serve: request rate-limited"))

// AdmissionConfig sizes the admission controller.
type AdmissionConfig struct {
	// Limiter configures the per-client token bucket (Rate <= 0 disables
	// that half; shedding still applies).
	Limiter LimiterConfig
	// MaxInFlight bounds concurrently-admitted requests. <= 0 disables
	// shedding (every request is admitted immediately).
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for an in-flight slot
	// before new arrivals are shed. 0 sheds as soon as MaxInFlight is
	// reached (no queue).
	MaxQueue int
	// RetryAfterHint is the Retry-After advertised on shed responses;
	// <= 0 means 1s. Limited responses compute theirs from the bucket.
	RetryAfterHint time.Duration
}

// Admission is the serving front door's admission controller: a
// per-client token-bucket rate limiter (ratelimit.go) composed with a
// queue-depth load shedder, an in-flight slots.Pool. Both run before any
// pipeline or LLM work is admitted, so an overloaded server's refusals
// are fast 429s — microseconds of handler time and zero upstream cost —
// instead of requests timing out deep in the stack. Admit either returns
// a release func (the request may run; call release exactly once when
// done) or a typed refusal carrying the Retry-After to advertise. Safe
// for concurrent use.
type Admission struct {
	limiter   *Limiter
	slots     *slots.Pool
	release   func() // slots.Release bound once, so Admit allocates no closure
	maxQueue  int
	retryHint time.Duration
}

// NewAdmission builds the controller.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.RetryAfterHint <= 0 {
		cfg.RetryAfterHint = time.Second
	}
	pool := slots.New(cfg.MaxInFlight, cfg.MaxQueue)
	return &Admission{
		limiter:   NewLimiter(cfg.Limiter),
		slots:     pool,
		release:   pool.Release,
		maxQueue:  cfg.MaxQueue,
		retryHint: cfg.RetryAfterHint,
	}
}

// Refusal is a typed admission rejection: Err is ErrShed or
// ErrRateLimited and RetryAfter is the backoff to advertise.
type Refusal struct {
	Err        error
	RetryAfter time.Duration
}

func (r *Refusal) Error() string { return r.Err.Error() }

// Unwrap exposes the refusal kind for errors.Is.
func (r *Refusal) Unwrap() error { return r.Err }

// Admit runs both gates for one request from the given client identity:
// the token bucket first (a limited client is refused without touching
// the queue), then the in-flight gate — admitted immediately when a slot
// is free, queued while the queue has room, shed otherwise. The returned
// release must be called exactly once when the admitted request finishes.
// A context that ends while queued returns ctx.Err() and gives the spot
// up. Admit on a nil controller admits everything with a no-op release.
func (a *Admission) Admit(ctx context.Context, client string) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	if ok, retry := a.limiter.Allow(client); !ok {
		return nil, &Refusal{Err: ErrRateLimited, RetryAfter: retry}
	}
	switch err := a.slots.Acquire(ctx); {
	case errors.Is(err, slots.ErrFull):
		return nil, &Refusal{Err: ErrShed, RetryAfter: a.retryHint}
	case err != nil:
		return nil, err
	}
	return a.release, nil
}

// AdmissionStats is a point-in-time admission snapshot.
type AdmissionStats struct {
	// MaxInFlight / MaxQueue echo the configuration (MaxInFlight 0 =
	// shedding disabled).
	MaxInFlight int `json:"max_in_flight"`
	MaxQueue    int `json:"max_queue"`
	// InFlight / QueueDepth are the current gauges.
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`
	// Admitted / Shed count admission outcomes; Queued counts admitted
	// requests that had to wait for a slot first.
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	Queued   int64 `json:"queued"`
	// Limited is the token-bucket refusals (the limiter's own snapshot
	// carries rate/burst/clients).
	Limited int64        `json:"limited"`
	Limiter LimiterStats `json:"limiter"`
}

// Stats snapshots the controller. Safe on nil (all zeros).
func (a *Admission) Stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	lim := a.limiter.Stats()
	p := a.slots.Stats()
	return AdmissionStats{
		MaxInFlight: p.Size,
		MaxQueue:    a.maxQueue,
		InFlight:    p.InUse,
		QueueDepth:  p.Queued,
		Admitted:    p.Admitted,
		Shed:        p.Shed,
		Queued:      p.Waited,
		Limited:     lim.Limited,
		Limiter:     lim,
	}
}
