package substrate

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/embed"
	"repro/internal/failure"
	"repro/internal/kg"
)

// Durability configures a Manager's persistence layer.
type Durability struct {
	// Dir is the root data directory; each manager persists under
	// Dir/<source>/. Empty disables persistence entirely.
	Dir string
	// Fsync is the WAL sync policy (default SyncInterval, which fsyncs
	// every DefaultSyncEvery).
	Fsync SyncPolicy
	// CheckpointInterval writes a checkpoint on a timer; <= 0 checkpoints
	// only on compaction and explicit Checkpoint calls.
	CheckpointInterval time.Duration
}

// DefaultSyncEvery is SyncInterval's background fsync cadence.
const DefaultSyncEvery = 100 * time.Millisecond

// Enabled reports whether this configuration persists anything.
func (d Durability) Enabled() bool { return d.Dir != "" }

// RecoveryInfo describes what boot recovery restored.
type RecoveryInfo struct {
	// CheckpointEpoch / CheckpointTriples describe the checkpoint the
	// base was loaded from (zero when the seed store was used).
	CheckpointEpoch   uint64 `json:"checkpoint_epoch"`
	CheckpointTriples int    `json:"checkpoint_triples"`
	// ReplayedRecords / ReplayedTriples count the WAL tail replayed on
	// top of the checkpoint through the normal ingest path.
	ReplayedRecords int `json:"replayed_records"`
	ReplayedTriples int `json:"replayed_triples"`
	// TornRecordsDropped counts trailing WAL records dropped because
	// their frame was incomplete or failed its checksum.
	TornRecordsDropped int `json:"torn_records_dropped"`
	// SkippedCheckpoints counts checkpoint directories that failed
	// validation and were passed over for an older (or no) checkpoint.
	SkippedCheckpoints int `json:"skipped_checkpoints"`
}

// Errors the durability layer reports.
var (
	// ErrNotDurable reports a Checkpoint call on a memory-only manager.
	ErrNotDurable = errors.New("substrate: durability is not enabled")
	// ErrCheckpointing reports that a checkpoint is already being written.
	ErrCheckpointing = failure.Wrap(failure.Conflict, errors.New("substrate: checkpoint already in progress"))
)

// ChainGapError is Recover refusing to serve a directory whose WAL does
// not extend the loaded base one epoch at a time up to the highest epoch
// the directory itself names. Some acknowledged publish is then on
// neither side of the hole — typically every checkpoint that held it
// failed validation after the WAL had been truncated behind it — and
// serving would mean answering without those facts at a later epoch than
// peers that still hold them. There is no override in code: see the
// recovery runbook in docs/operations.md.
type ChainGapError struct {
	// Dir is the refused per-source data directory and Source its KG.
	Dir    string
	Source kg.Source
	// BaseEpoch is the epoch of the base that loaded: a checkpoint's, or
	// 1 for the seed (a primary's first boot publish and a fresh replica
	// both mean the seed by epoch 1).
	BaseEpoch uint64
	FromSeed  bool
	// MissingEpoch is the first epoch past the base with no WAL record.
	MissingEpoch uint64
	// NamedEpoch is the highest epoch a checkpoint directory name (valid
	// or skipped) or a WAL record carries: what the chain had to reach.
	NamedEpoch uint64
	// Skipped lists why each newer checkpoint was passed over.
	Skipped []error
}

func (e *ChainGapError) Error() string {
	base := fmt.Sprintf("the checkpoint at epoch %d", e.BaseEpoch)
	if e.FromSeed {
		base = fmt.Sprintf("the seed (epoch %d)", e.BaseEpoch)
	}
	msg := fmt.Sprintf("substrate[%s]: refusing to recover %s: %s loaded, but the wal holds no record for epoch %d and the directory names epoch %d",
		e.Source, e.Dir, base, e.MissingEpoch, e.NamedEpoch)
	for _, err := range e.Skipped {
		msg += fmt.Sprintf("; skipped %v", err)
	}
	return msg
}

// Recover builds a manager with persistence. When cfg.Durability is
// disabled this is exactly NewManager; otherwise it restores the
// substrate's pre-crash state from disk before serving:
//
//  1. Load the triples of the newest checkpoint under Dir/<source>/ that
//     fully validates (manifest, content hashes, triples, graph) as the
//     manager's store and re-encode them into its arena; fall back to
//     older ones, then to the seed store, when newer ones are corrupt.
//  2. Replay the WAL tail — every record with an epoch past the
//     checkpoint's — through the normal ingest path, appending to that
//     store and arena. Torn tail records (incomplete frame or checksum
//     mismatch) are dropped with a logged count and physically truncated
//     so appends resume on a clean boundary.
//  3. Resume the epoch at (max persisted epoch) + 1, so the epoch never
//     regresses across a restart and the epochs clients see never go
//     backwards.
//
// Recovery fails closed on a broken epoch chain, as ApplyReplicated does
// on the live path: every replayed record must extend the base by exactly
// one epoch, and the chain must reach the highest epoch any checkpoint
// directory name or WAL record carries; otherwise Recover returns a
// *ChainGapError and serves nothing. The crash window between "checkpoint
// written" and "WAL truncated" leaves a full log and still falls back.
//
// The seed store is the deterministic boot-time base (the rendered
// world); it is only used when no checkpoint exists, and then copied as
// NewManager copies it, so the caller's store never changes. Callers
// should Close the returned manager on shutdown to stop background
// fsync/checkpoint loops and flush the WAL.
func Recover(enc *embed.Encoder, seed *kg.Store, cfg Config) (*Manager, error) {
	if !cfg.Durability.Enabled() {
		return NewManager(enc, seed, cfg), nil
	}
	dir := filepath.Join(cfg.Durability.Dir, seed.Source().String())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("substrate: data dir: %w", err)
	}
	m := &Manager{
		enc:     enc,
		cfg:     cfg,
		durable: true,
		dir:     dir,
	}

	cp, named, skipped := loadNewestCheckpoint(dir, enc, cfg.ShardSize)
	for _, err := range skipped {
		log.Printf("substrate[%s]: skipping invalid checkpoint: %v", seed.Source(), err)
	}
	m.recovery.SkippedCheckpoints = len(skipped)
	if cp != nil {
		m.store = cp.store
		m.arena = cp.arena
		m.baseRows = cp.store.Len()
		m.epoch = cp.epoch
		m.recovery.CheckpointEpoch = cp.epoch
		m.recovery.CheckpointTriples = cp.store.Len()
		m.lastCheckpointEpoch.Store(cp.epoch)
		if cfg.ANN.Enabled {
			// Reload: the persisted graph is bound to the arena's first rows
			// (a checkpoint holds base + delta, so the former delta's rows
			// stay exact-scanned until the next compaction).
			m.baseANN = cp.ann
		}
	} else {
		m.loadSeed(seed)
	}
	if m.baseANN == nil {
		// Seed boot, or ANN newly enabled over a checkpoint written without
		// a graph file (ANN was off, or format 1): build it at boot.
		m.baseANN = m.graphOver(m.baseRows)
	}

	// Replay the WAL tail through the ingest plan/apply path, then
	// truncate any torn tail so the append cursor lands on a record
	// boundary.
	walPath := filepath.Join(dir, walName)
	recs, validBytes, torn, err := replayWAL(walPath)
	if err != nil {
		return nil, err
	}
	if torn > 0 {
		log.Printf("substrate[%s]: dropping %d torn wal record(s) past byte %d", seed.Source(), torn, validBytes)
		if err := os.Truncate(walPath, validBytes); err != nil {
			return nil, fmt.Errorf("substrate: truncate torn wal tail: %w", err)
		}
	}
	m.recovery.TornRecordsDropped = torn
	// The chain rule: named is the highest epoch a checkpoint directory
	// or a record carries, chain the epoch the replayed state has reached,
	// starting from the base's.
	for _, rec := range recs {
		named = max(named, rec.Epoch)
	}
	chain := m.epoch
	if cp == nil {
		chain = 1 // see ChainGapError.BaseEpoch
	}
	baseEpoch := chain
	m.mu.Lock()
	for _, rec := range recs {
		if rec.Epoch <= chain {
			// Already folded into the base; the record only survived
			// because the post-checkpoint truncation didn't land before
			// the crash (or it is the seed's own epoch-1 boot marker).
			continue
		}
		if rec.Epoch != chain+1 {
			break // a hole: chain stays short of named
		}
		chain = rec.Epoch
		if len(rec.Triples) == 0 {
			continue // compaction or boot epoch marker
		}
		fresh, _ := m.planLocked(rec.Triples)
		m.applyLocked(fresh)
		m.recovery.ReplayedRecords++
		m.recovery.ReplayedTriples += len(fresh)
	}
	if chain < named {
		m.mu.Unlock()
		return nil, &ChainGapError{
			Dir: dir, Source: seed.Source(),
			BaseEpoch: baseEpoch, FromSeed: cp == nil,
			MissingEpoch: chain + 1, NamedEpoch: named,
			Skipped: skipped,
		}
	}
	// chain == named from here on, except in an empty directory: there
	// named is 0 and a primary's first publish must still create epoch 1.
	lastEpoch := named
	if cfg.Replica {
		// A replica resumes at EXACTLY the largest persisted epoch: its
		// epoch must track the primary's record chain one-for-one, and the
		// chain extends from precisely this point. A fresh replica (nothing
		// persisted) publishes the seed at epoch 1 — the primary's epoch 1
		// is its own boot publish of the same deterministic seed, so the
		// contents agree and streaming resumes from 1.
		if lastEpoch == 0 {
			lastEpoch = 1
		}
		m.epoch = lastEpoch
		m.republishLocked()
	} else {
		// Resume past everything persisted: the publish below creates epoch
		// lastEpoch+1, so no client ever observes an epoch it has seen
		// before holding different content.
		m.epoch = lastEpoch
		m.publishLocked()
	}
	bootEpoch := m.epoch
	m.mu.Unlock()

	w, err := openWAL(walPath, cfg.Durability.Fsync)
	if err != nil {
		return nil, err
	}
	m.wal = w
	if !cfg.Replica {
		// Log the boot publish as a zero-triple epoch marker so the WAL
		// records EVERY epoch since the chain base: replicas shipping the
		// log see a contiguous chain across primary restarts, and the
		// epoch a recovery resumed at can never regress even if the
		// process dies before its first ingest. (Replicas skip this: their
		// local WAL holds only records shipped from the primary.)
		if err := w.append(bootEpoch, nil); err != nil {
			return nil, fmt.Errorf("substrate: boot epoch marker: %w", err)
		}
	}

	if cfg.Durability.Fsync == SyncInterval {
		m.stopFlush = make(chan struct{})
		m.flushDone = make(chan struct{})
		go w.flusher(m.stopFlush, m.flushDone)
	}
	if cfg.Durability.CheckpointInterval > 0 {
		m.stopCkpt = make(chan struct{})
		m.ckptDone = make(chan struct{})
		go m.checkpointLoop(cfg.Durability.CheckpointInterval)
	}
	// A replayed delta already past the auto-compaction threshold folds (and
	// checkpoints) now instead of waiting for the next live ingest to
	// notice. The WAL Compact logs to is open by this point.
	m.mu.Lock()
	m.autoCompactLocked()
	m.mu.Unlock()
	return m, nil
}

// checkpointLoop writes timer-driven checkpoints until Close.
func (m *Manager) checkpointLoop(every time.Duration) {
	defer close(m.ckptDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := m.Checkpoint(context.Background()); err != nil && !errors.Is(err, ErrCheckpointing) {
				log.Printf("substrate[%s]: timed checkpoint: %v", m.Source(), err)
			}
		case <-m.stopCkpt:
			return
		}
	}
}

// CheckpointInfo describes one written checkpoint.
type CheckpointInfo struct {
	// Epoch is the snapshot epoch the checkpoint captured.
	Epoch uint64 `json:"epoch"`
	// Triples is the persisted snapshot's triple count.
	Triples int `json:"triples"`
	// Path is the checkpoint directory on disk.
	Path string `json:"path"`
}

// Checkpoint atomically persists the current snapshot (triples.nt, plus
// graph.bin when a graph exists), then truncates the WAL up to the
// checkpointed epoch and prunes older checkpoints. The snapshot and its
// graph are captured under the writer lock, but all file I/O runs
// outside it, so ingest stays live while a checkpoint writes.
// Returns ErrNotDurable on memory-only managers and ErrCheckpointing
// when another checkpoint is in flight.
func (m *Manager) Checkpoint(ctx context.Context) (CheckpointInfo, error) {
	if !m.durable {
		return CheckpointInfo{}, ErrNotDurable
	}
	m.mu.Lock()
	if m.checkpointing {
		m.mu.Unlock()
		return CheckpointInfo{}, ErrCheckpointing
	}
	m.checkpointing = true
	// cur always reflects the master state while m.mu is held (every
	// mutation republishes before releasing the lock), so the snapshot
	// and the graph captured here are one consistent pair.
	snap := m.cur.Load()
	ann := m.baseANN
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.checkpointing = false
		m.mu.Unlock()
	}()

	if err := ctx.Err(); err != nil {
		return CheckpointInfo{}, err
	}
	path, err := writeCheckpoint(m.dir, snap.Epoch, snap.Store.Source(), snap.Store.All(), ann)
	if err != nil {
		return CheckpointInfo{}, failure.Wrap(failure.Storage, err)
	}
	m.checkpoints.Add(1)
	m.lastCheckpointEpoch.Store(snap.Epoch)
	// Truncation and pruning are space reclamation, not correctness:
	// leftover records at or below the checkpoint epoch are filtered at
	// replay, and older checkpoint dirs are simply not the newest. Log
	// failures and keep serving.
	if err := m.wal.truncateThrough(snap.Epoch); err != nil {
		log.Printf("substrate[%s]: wal truncation after checkpoint: %v", m.Source(), err)
	}
	for _, err := range pruneCheckpoints(m.dir, snap.Epoch) {
		log.Printf("substrate[%s]: %v", m.Source(), err)
	}
	return CheckpointInfo{
		Epoch:   snap.Epoch,
		Triples: snap.Store.Len(),
		Path:    path,
	}, nil
}

// Recovery returns what boot recovery restored (zero for memory-only
// managers and first boots).
func (m *Manager) Recovery() RecoveryInfo { return m.recovery }

// Close stops the background fsync and checkpoint loops and flushes and
// closes the WAL. Memory-only managers close trivially. Safe to call
// more than once; the manager must not ingest after Close.
func (m *Manager) Close() error {
	m.closeOnce.Do(func() {
		m.closeSubs()
		if m.stopCkpt != nil {
			close(m.stopCkpt)
			<-m.ckptDone
		}
		if m.stopFlush != nil {
			close(m.stopFlush)
			<-m.flushDone
		}
		if m.wal != nil {
			m.closeErr = m.wal.close()
		}
	})
	return m.closeErr
}
