package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/substrate"
)

// ApplierConfig configures one source's stream-apply loop.
type ApplierConfig struct {
	// Primary is the primary's base URL (e.g. "http://10.0.0.1:8080").
	Primary string
	// Source is the KG source label this applier replicates.
	Source string
	// Manager is the local replica-mode substrate the records land in.
	Manager *substrate.Manager
	// Client issues the stream requests; nil uses a client with no
	// timeout (streams are long-lived; cancellation comes from Run's
	// context).
	Client *http.Client
	// Backoff / MaxBackoff pace reconnects: the delay starts at Backoff
	// and doubles per consecutive failure up to MaxBackoff, resetting
	// after any successful apply. Defaults: 100ms / 5s.
	Backoff    time.Duration
	MaxBackoff time.Duration
}

// Applier maintains one source's replication stream: connect to the
// primary from the local epoch, apply records in order through
// substrate.ApplyReplicated, reconnect with backoff on any failure.
// All counters are atomics, readable at any time via Stats.
type Applier struct {
	cfg ApplierConfig

	connected       atomic.Bool
	headEpoch       atomic.Uint64
	recordsApplied  atomic.Uint64
	recordsSkipped  atomic.Uint64
	reconnects      atomic.Uint64
	truncatedSignal atomic.Uint64

	mu      sync.Mutex
	lastErr string
}

// NewApplier validates the config and builds the applier.
func NewApplier(cfg ApplierConfig) (*Applier, error) {
	if cfg.Primary == "" || cfg.Source == "" || cfg.Manager == nil {
		return nil, errors.New("repl: applier needs Primary, Source and Manager")
	}
	if !cfg.Manager.Replica() {
		return nil, errors.New("repl: applier manager must be in replica mode")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	return &Applier{cfg: cfg}, nil
}

// ApplierStats is a point-in-time snapshot of one applier's books.
type ApplierStats struct {
	Source    string `json:"source"`
	Primary   string `json:"primary"`
	Connected bool   `json:"connected"`
	// AppliedEpoch is the local substrate's epoch — the last record
	// applied (or recovered). HeadEpoch is the primary's last observed
	// head; LagRecords is their distance (every epoch is exactly one
	// record, so epoch lag IS record lag).
	AppliedEpoch uint64 `json:"applied_epoch"`
	HeadEpoch    uint64 `json:"head_epoch"`
	LagRecords   uint64 `json:"lag_records"`
	// RecordsApplied counts records that advanced the chain;
	// RecordsSkipped counts idempotent re-deliveries after resumes.
	RecordsApplied uint64 `json:"records_applied"`
	RecordsSkipped uint64 `json:"records_skipped"`
	// Reconnects counts stream attempts after the first connection.
	Reconnects uint64 `json:"reconnects"`
	// TruncatedSignals counts 410 responses: the primary checkpointed
	// past this replica's epoch while it was away, so catch-up needs a
	// restart (the boot pre-flight bootstraps from the checkpoint).
	TruncatedSignals uint64 `json:"truncated_signals"`
	LastError        string `json:"last_error,omitempty"`
}

// Stats snapshots the applier's counters.
func (a *Applier) Stats() ApplierStats {
	applied := a.cfg.Manager.Epoch()
	head := a.headEpoch.Load()
	var lag uint64
	if head > applied {
		lag = head - applied
	}
	a.mu.Lock()
	lastErr := a.lastErr
	a.mu.Unlock()
	return ApplierStats{
		Source:           a.cfg.Source,
		Primary:          a.cfg.Primary,
		Connected:        a.connected.Load(),
		AppliedEpoch:     applied,
		HeadEpoch:        head,
		LagRecords:       lag,
		RecordsApplied:   a.recordsApplied.Load(),
		RecordsSkipped:   a.recordsSkipped.Load(),
		Reconnects:       a.reconnects.Load(),
		TruncatedSignals: a.truncatedSignal.Load(),
		LastError:        lastErr,
	}
}

func (a *Applier) setErr(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err == nil {
		a.lastErr = ""
	} else {
		a.lastErr = err.Error()
	}
}

// bumpHead advances the observed head epoch monotonically.
func (a *Applier) bumpHead(epoch uint64) {
	for {
		cur := a.headEpoch.Load()
		if epoch <= cur || a.headEpoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// errStreamTruncated marks a 410 from the primary.
var errStreamTruncated = errors.New("repl: primary's wal was truncated past our epoch; restart the replica to bootstrap from the checkpoint")

// Run drives the stream-apply loop until ctx is canceled. Blocking;
// callers run it in a goroutine per source.
func (a *Applier) Run(ctx context.Context) {
	first := true
	backoff := a.cfg.Backoff
	for {
		if ctx.Err() != nil {
			return
		}
		if !first {
			a.reconnects.Add(1)
		}
		first = false
		applied, err := a.streamOnce(ctx)
		a.connected.Store(false)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			a.setErr(err)
		}
		if applied > 0 {
			backoff = a.cfg.Backoff
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > a.cfg.MaxBackoff {
			backoff = a.cfg.MaxBackoff
		}
	}
}

// streamOnce runs one stream connection to completion, returning how
// many records it applied. A clean server-side close (subscriber
// dropped, primary shutdown) returns nil — the caller reconnects and
// resumes from the new local epoch either way.
func (a *Applier) streamOnce(ctx context.Context) (applied uint64, err error) {
	from := a.cfg.Manager.Epoch()
	u := fmt.Sprintf("%s/v1/repl/stream?source=%s&from=%d", a.cfg.Primary, url.QueryEscape(a.cfg.Source), from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		a.truncatedSignal.Add(1)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, errStreamTruncated
	default:
		return 0, fmt.Errorf("repl: stream %s: %s", u, resp.Status)
	}

	sr := newStreamReader(resp.Body)
	if err := sr.readMagic(); err != nil {
		return 0, err
	}
	a.connected.Store(true)
	a.setErr(nil)
	for {
		fr, err := sr.next()
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			return applied, err
		}
		switch fr.Kind {
		case kindRecord:
			advanced, err := a.cfg.Manager.ApplyReplicated(fr.Record)
			if err != nil {
				// An epoch gap means this stream is not contiguous with our
				// chain; drop the connection and resume from the local epoch.
				return applied, err
			}
			a.bumpHead(fr.Record.Epoch)
			if advanced {
				applied++
				a.recordsApplied.Add(1)
			} else {
				a.recordsSkipped.Add(1)
			}
		case kindHeartbeat:
			a.bumpHead(fr.Head)
		}
	}
}

// ParseMinEpoch reads the X-Min-Epoch read-your-writes header (0 when
// absent); an unparsable value is an error so a client typo cannot
// silently drop its consistency requirement.
func ParseMinEpoch(v string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: invalid X-Min-Epoch %q", v)
	}
	return n, nil
}
