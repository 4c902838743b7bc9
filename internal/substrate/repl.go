package substrate

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/failure"
	"repro/internal/kg"
)

// Replication support: a durable Manager doubles as the primary end of a
// WAL-shipping pair. Every publish already appends one record to the WAL
// (ingest batches carry their triples, compaction and boot publishes are
// zero-triple epoch markers), so the log is a contiguous chain: every
// epoch after the chain base — the newest checkpoint's epoch, or the
// first boot publish — has exactly one record. A replica that holds
// content(E) reconstructs content(E+k) by applying the records E+1..E+k
// in order; RecordsSince serves the on-disk tail, SubscribeWAL feeds the
// live head, and ApplyReplicated is the replica-side apply that publishes
// at exactly the primary's epoch so the epochs in cache scopes, traces
// and answers mean the same thing on every node.

// EncodeWALRecord renders the record in the WAL payload format — the
// exact bytes the primary logged, reused as the stream wire format.
func EncodeWALRecord(rec WALRecord) []byte {
	return encodeWALPayload(rec.Epoch, rec.Triples)
}

// ErrTruncatedHistory reports that the WAL no longer reaches back to the
// requested epoch — a checkpoint folded that prefix away. The caller
// must re-sync from a checkpoint instead of the log.
var ErrTruncatedHistory = failure.Wrap(failure.Truncated, errors.New("substrate: wal history before the requested epoch was truncated by a checkpoint"))

// ErrEpochGap reports an ApplyReplicated record that does not directly
// extend the replica's applied chain.
var ErrEpochGap = errors.New("substrate: replicated record does not extend the applied epoch chain")

// RecordsSince returns every committed WAL record with epoch > from, in
// epoch order. It fails with ErrTruncatedHistory when the log provably
// cannot cover (from, head]: the caller should bootstrap from a
// checkpoint and retry from its epoch. Only durable managers keep a log.
func (m *Manager) RecordsSince(from uint64) ([]WALRecord, error) {
	if !m.durable {
		return nil, ErrNotDurable
	}
	// A concurrent append can leave a half-written final frame; replayWAL
	// treats it as a torn tail and stops cleanly — the record reaches the
	// subscriber feed (and the next RecordsSince) once fully written.
	recs, _, _, err := replayWAL(filepath.Join(m.dir, walName))
	if err != nil {
		return nil, failure.Wrap(failure.Storage, err)
	}
	out := make([]WALRecord, 0, len(recs))
	for _, rec := range recs {
		if rec.Epoch > from {
			out = append(out, rec)
		}
	}
	// Coverage check: the chain (from, head] is served only when the
	// checkpoint horizon is at or below from, or the log itself still
	// starts at from+1 or earlier (truncation is best-effort, so records
	// below the horizon may survive). Anything else risks a silent gap.
	if m.lastCheckpointEpoch.Load() > from {
		if len(recs) == 0 || recs[0].Epoch > from+1 {
			return nil, ErrTruncatedHistory
		}
	}
	return out, nil
}

// WALSub is one live WAL subscription. C delivers records in append
// order; the channel is closed when the subscriber lags past its buffer
// (re-sync from RecordsSince) or the manager closes.
type WALSub struct {
	C      <-chan WALRecord
	c      chan WALRecord
	id     int
	closed bool
}

// SubscribeWAL registers a live feed of WAL appends with the given
// buffer (<= 0 picks a default). Cancel with the returned function; a
// subscriber that falls more than buf records behind is dropped (its
// channel closes) so a stuck stream can never block ingest.
func (m *Manager) SubscribeWAL(buf int) (*WALSub, func()) {
	if buf <= 0 {
		buf = 256
	}
	c := make(chan WALRecord, buf)
	sub := &WALSub{C: c, c: c}
	m.replMu.Lock()
	m.replSubID++
	sub.id = m.replSubID
	if m.replSubs == nil {
		m.replSubs = make(map[int]*WALSub)
	}
	m.replSubs[sub.id] = sub
	m.replMu.Unlock()
	return sub, func() { m.dropSub(sub.id) }
}

func (m *Manager) dropSub(id int) {
	m.replMu.Lock()
	defer m.replMu.Unlock()
	if sub, ok := m.replSubs[id]; ok {
		delete(m.replSubs, id)
		if !sub.closed {
			sub.closed = true
			close(sub.c)
		}
	}
}

// notifyRepl fans one just-appended record out to the live subscribers.
// Non-blocking: a full subscriber is dropped (channel closed) and must
// re-sync from the log — WAL shipping may lag, never stall the writer.
func (m *Manager) notifyRepl(epoch uint64, triples []kg.Triple) {
	m.replMu.Lock()
	defer m.replMu.Unlock()
	for id, sub := range m.replSubs {
		select {
		case sub.c <- WALRecord{Epoch: epoch, Triples: triples}:
		default:
			delete(m.replSubs, id)
			sub.closed = true
			close(sub.c)
		}
	}
}

// closeSubs drops every live subscription (manager shutdown).
func (m *Manager) closeSubs() {
	m.replMu.Lock()
	defer m.replMu.Unlock()
	for id, sub := range m.replSubs {
		delete(m.replSubs, id)
		sub.closed = true
		close(sub.c)
	}
}

// ApplyReplicated applies one shipped WAL record on a replica manager:
// the record is logged to the local WAL under the primary's epoch,
// applied through the normal ingest plan/apply path, and published at
// exactly rec.Epoch — so the replica's snapshot chain is the primary's,
// epoch for epoch. Records at or below the applied epoch are skipped
// (idempotent across stream resumes); a record past epoch+1 fails with
// ErrEpochGap and the applier must re-sync. Returns whether the record
// advanced the chain.
func (m *Manager) ApplyReplicated(rec WALRecord) (bool, error) {
	if !m.cfg.Replica {
		return false, errors.New("substrate: ApplyReplicated on a non-replica manager")
	}
	m.mu.Lock()
	if rec.Epoch <= m.epoch {
		m.mu.Unlock()
		return false, nil
	}
	if rec.Epoch != m.epoch+1 {
		have, want := m.epoch, rec.Epoch
		m.mu.Unlock()
		return false, fmt.Errorf("%w: applied epoch %d, record epoch %d", ErrEpochGap, have, want)
	}
	if m.wal != nil {
		if err := m.wal.append(rec.Epoch, rec.Triples); err != nil {
			m.mu.Unlock()
			return false, err
		}
	}
	fresh, _ := m.planLocked(rec.Triples)
	m.applyLocked(fresh)
	if len(fresh) > 0 {
		m.ingests.Add(1)
	}
	m.publishLocked() // epoch was rec.Epoch-1, so this publishes rec.Epoch
	// Replica compactions are epoch-frozen (see Compact), so a compaction
	// never desynchronises the applied chain.
	m.autoCompactLocked()
	m.mu.Unlock()
	return true, nil
}

// Replica reports whether this manager applies a primary's WAL instead
// of accepting local ingests.
func (m *Manager) Replica() bool { return m.cfg.Replica }

// LastCheckpointEpoch reports the epoch of the most recent checkpoint
// (written or recovered), 0 when none exists. This is the oldest epoch
// a joining replica can stream from without a bootstrap.
func (m *Manager) LastCheckpointEpoch() uint64 { return m.lastCheckpointEpoch.Load() }

// NewestCheckpoint returns the newest on-disk checkpoint directory and
// its epoch, or ok=false when none exists. The directory is stable: a
// newer checkpoint lands under a different name and pruning only removes
// superseded ones after the new directory is in place, so a caller
// tarring the returned path races at worst with its own slowness.
func (m *Manager) NewestCheckpoint() (path string, epoch uint64, ok bool) {
	if !m.durable {
		return "", 0, false
	}
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return "", 0, false
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if ep, valid := parseCheckpointEpoch(e.Name()); valid && (!ok || ep > epoch) {
			path, epoch, ok = filepath.Join(m.dir, e.Name()), ep, true
		}
	}
	return path, epoch, ok
}

// ParseCheckpointDir reports whether name is a checkpoint directory
// name (checkpoint-<epoch hex>) and the epoch it encodes. Exported for
// the replication bootstrap, which validates fetched archive roots.
func ParseCheckpointDir(name string) (uint64, bool) { return parseCheckpointEpoch(name) }

// MaxPersistedEpoch scans a manager data directory (one source's
// Dir/<source>) without building a manager and reports the largest epoch
// its checkpoints and WAL cover — what a recovery from that directory
// would resume at. A missing or empty directory is epoch 0. Used by the
// replica pre-flight to decide whether the primary's stream can extend
// local state or a checkpoint bootstrap is needed first.
func MaxPersistedEpoch(dir string) (uint64, error) {
	var max uint64
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("substrate: scan data dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if ep, ok := parseCheckpointEpoch(e.Name()); ok && ep > max {
			// Trust the directory name without full validation: an invalid
			// checkpoint only makes the pre-flight skip a bootstrap it would
			// have tolerated, and recovery re-validates everything anyway.
			max = ep
		}
	}
	recs, _, _, err := replayWAL(filepath.Join(dir, walName))
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		if rec.Epoch > max {
			max = rec.Epoch
		}
	}
	return max, nil
}
