// Package substrate manages live, versioned knowledge substrates: the
// (kg store, vector index) pair every QA method runs against, made
// updatable under serving traffic without a restart.
//
// The design is snapshot-based. A Manager owns:
//
//   - one append-only kg.Store holding every triple it has served, in ID
//     order, for its whole lifetime — the seed or a checkpoint's triples
//     first, then every ingest;
//   - one append-only vector arena (vecstore.Arena) holding the store's
//     triples as rows in the same order, row i being triple i, in chunks
//     of the shard size; it keeps no triple of its own, and a view of it
//     resolves row i to triple i of the store;
//   - the current Snapshot: an immutable (epoch, *kg.Prefix,
//     vecstore.Searcher) triple published with an atomic pointer swap. Its
//     store is a view of the store's first n triples (kg.Store.Prefix)
//     and its index a view of the arena's first n rows over those triples
//     (Arena.View of the Prefix's Triples), which later appends change
//     neither of, so a snapshot is a length: a publish copies no triple
//     and no row, and costs the batch, not the store.
//
// Readers resolve the current snapshot once per query and keep it for the
// whole run, so a query served mid-ingest sees one consistent substrate
// end-to-end. Writers (Ingest, Compact) build the next snapshot off to the
// side and swap it in; the epoch increments on every swap, which serving
// layers fold into cache scopes so an answer computed against an older
// substrate is served again only after its reads are checked against the
// new one.
//
// A triple ID is its row in the store and in the arena, so it names one
// triple for a manager's lifetime, and every KG read of a snapshot is a
// function of its triple set alone: ingest and compaction never move a
// row. Answer read logs name triples by ID and rely on this.
//
// An ingest encodes only the triples it adds: it appends them to the
// arena and publishes the longer view. Every view's rows are the triples
// in ID order, cut into blocks of the shard size (the vecstore package
// comment's filter rule), so a cached answer revalidated at a later view
// searches only the rows added since its last replay (the vecstore
// package comment's watermark).
//
// Compaction marks the rows published so far as the base: BaseTriples in
// the stats, the rows a durable restart loads from the checkpoint it
// writes. It re-encodes nothing. With Config.ANN it builds the HNSW graph
// over those rows, off the writer lock so ingest stays live, and the
// snapshot it publishes searches the graph, with the rows ingested since
// scanned exactly.
//
// # Invariants
//
//   - Snapshot immutability: a published Snapshot's Store and Index never
//     change. Queries resolve one snapshot and keep it; swaps never tear
//     a running query.
//   - Epoch monotonicity: every publish increments the epoch, and on
//     durable managers the epoch never regresses across a restart —
//     recovery resumes past the largest persisted epoch, so the epochs
//     clients see never go backwards with zero coordination.
//   - Log-before-apply: on durable managers every ingest batch is
//     appended (and, per policy, fsynced) to the WAL before any in-memory
//     state changes; a failed append rejects the ingest with nothing to
//     roll back.
//
// # Durability
//
// Config.Durability enables persistence: an ingest WAL (wal.go) bounded
// by atomic checkpoints (checkpoint.go) — the snapshot's triples, a
// manifest with their hash, and the HNSW adjacency when there is a
// graph; vectors are derived from the triples and never stored —
// written on compaction, on a timer, and on demand. Build durable
// managers with Recover, which loads the newest valid checkpoint,
// re-encodes its triples into the arena, replays the WAL tail through the
// normal ingest path, and drops torn tail records by checksum
// (recover.go).
// Close a durable manager on shutdown.
package substrate

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/embed"
	"repro/internal/failure"
	"repro/internal/kg"
	"repro/internal/vecstore"
)

// Config sizes a Manager.
type Config struct {
	// ShardSize is the block size of the vector index, and the chunk size
	// of its arena; <= 0 uses vecstore.DefaultShardSize.
	ShardSize int
	// CompactThreshold starts a background compaction when an ingest
	// leaves the delta at or above this many triples; 0 disables
	// auto-compaction (Compact can still be called explicitly).
	CompactThreshold int
	// Durability configures persistence (ingest WAL + checkpoints); the
	// zero value keeps the manager memory-only. Durable managers must be
	// built with Recover, which replays persisted state at boot.
	Durability Durability
	// ANN configures approximate retrieval over the base shards; the
	// zero value keeps every search an exact scan.
	ANN ANNConfig
	// Replica puts the manager in WAL-applying mode: recovery resumes at
	// exactly the largest persisted epoch (never +1, so the applied chain
	// can extend it seamlessly), compactions are epoch-frozen (a
	// compaction changes no content, so the epoch — and with it every
	// cache scope — stays put), and ApplyReplicated becomes
	// the only legal writer. Local Ingest must not be called.
	Replica bool
}

// ANNConfig enables sublinear approximate retrieval: an HNSW graph is
// built over the base rows at boot and rebuilt by every compaction (off
// the writer lock), while the rows ingested since stay exact-scan.
// The snapshot then serves through a vecstore.Hybrid — graph over the
// base, exact over the delta, merged per query — so the approximate/exact
// split rides the existing snapshot lifecycle and cache revalidation
// unchanged. Every graph is built with the vecstore defaults.
type ANNConfig struct {
	// Enabled turns the ANN path on.
	Enabled bool
	// EfSearch is the search beam width; 0 uses
	// vecstore.DefaultHNSWEfSearch. It shapes searches only: nothing of it
	// is built into, or persisted with, a graph.
	EfSearch int
}

// Snapshot is one immutable substrate version. Store and Index never
// change after publication; a caller holding a Snapshot can serve any
// number of queries against a consistent view.
type Snapshot struct {
	// Epoch increments on every swap. Serving layers scope cache entries
	// by it, so an answer from an older substrate is revalidated before it
	// is served after a swap.
	Epoch uint64
	// Store is the consistent triple view: the manager store's first
	// BaseTriples + DeltaTriples triples.
	Store *kg.Prefix
	// Index is the vector index over exactly Store's triples: a view of
	// the arena's first rows.
	Index vecstore.Searcher
	// BaseTriples / DeltaTriples split Store.Len() at the last compaction
	// (or the boot base): the rows published then, and the rows added
	// since.
	BaseTriples  int
	DeltaTriples int

	// view is Index's exact view of the arena, and graph the HNSW graph
	// Index searches (nil when it is that view): what Stats describes.
	view  *vecstore.Sharded
	graph *vecstore.HNSW
}

// ErrCompacting reports that a compaction is already running.
var ErrCompacting = failure.Wrap(failure.Conflict, errors.New("substrate: compaction already in progress"))

// invalidTriplef is Ingest's refusal of a batch because of what the
// caller sent (a missing field, a reserved character, an oversized
// triple): an invalid query. Every other Ingest error is about the
// manager, not the batch: a WAL append that failed (storage), a closed
// or replica-mode manager.
func invalidTriplef(format string, args ...any) error {
	return failure.Wrap(failure.InvalidQuery, fmt.Errorf(format, args...))
}

// maxTripleBytes bounds one ingested triple's combined field length —
// comfortably under the 1 MiB per-line cap kg.ReadNT applies when a
// checkpoint is loaded back, so no accepted triple can ever make a
// checkpoint unreadable.
const maxTripleBytes = 256 << 10

// Manager owns the snapshot chain for one KG source. Safe for concurrent
// use: any number of readers (Current/Resolve) proceed lock-free while
// writers serialise on an internal mutex.
type Manager struct {
	enc *embed.Encoder
	cfg Config

	cur atomic.Pointer[Snapshot]

	mu sync.Mutex // guards the master state below
	// store holds every triple in ID order; it only ever appends, and
	// every snapshot reads a prefix of it.
	store *kg.Store
	// arena holds the store's triples as vector rows, in the same order.
	arena *vecstore.Arena
	// baseRows is the row count at the last compaction, or of the boot
	// base.
	baseRows int
	// baseANN is the HNSW graph over the arena's first rows (usually the
	// base's; after a mid-generation recovery it may cover fewer — the
	// uncovered rows are exact-scanned until the next compaction). Nil
	// when Config.ANN is disabled.
	baseANN       *vecstore.HNSW
	epoch         uint64
	compacting    bool
	checkpointing bool

	ingests     atomic.Int64
	compactions atomic.Int64
	// annCounters survive snapshot recomposition: every publish wires the
	// same counters into the new view.
	annCounters vecstore.ANNCounters

	// Durability state: nil/zero for memory-only managers (see Recover).
	durable bool
	dir     string // per-source data directory
	wal     *wal
	// recovery describes what boot recovery restored; set once by Recover.
	recovery            RecoveryInfo
	checkpoints         atomic.Int64
	lastCheckpointEpoch atomic.Uint64

	// Live WAL-shipping subscribers (repl.go); replMu is ordered after
	// m.mu and the wal mutex — notifyRepl is only called with neither
	// held or with m.mu held, never from inside the wal lock.
	replMu    sync.Mutex
	replSubs  map[int]*WALSub
	replSubID int

	closeOnce sync.Once
	closeErr  error
	stopFlush chan struct{}
	flushDone chan struct{}
	stopCkpt  chan struct{}
	ckptDone  chan struct{}
}

// NewManager builds a manager over a copy of the seed store, encoding its
// vector rows. The caller's store is not changed, by this call or by any
// later ingest.
func NewManager(enc *embed.Encoder, seed *kg.Store, cfg Config) *Manager {
	m := &Manager{enc: enc, cfg: cfg}
	m.loadSeed(seed)
	m.baseANN = m.graphOver(m.baseRows)
	m.mu.Lock()
	m.publishLocked()
	m.mu.Unlock()
	return m
}

// loadSeed makes a copy of the seed the manager's store and base. The copy
// keeps every ID: the seed's triples are its rows in order.
func (m *Manager) loadSeed(seed *kg.Store) {
	all := seed.All()
	m.store = kg.NewStore(seed.Source())
	m.store.AddAll(all)
	m.arena = vecstore.NewArena(m.enc, m.cfg.ShardSize)
	m.arena.Append(all)
	m.baseRows = len(all)
}

// graphOver builds the ANN graph over the arena's first rows: the graph
// scores the arena's own rows. Nil when Config.ANN is disabled.
func (m *Manager) graphOver(rows int) *vecstore.HNSW {
	if !m.cfg.ANN.Enabled {
		return nil
	}
	return vecstore.BuildGraph(m.arena.View(m.store.Prefix(rows).Triples()), vecstore.HNSWConfig{})
}

// Current returns the live snapshot. The result is immutable; hold it for
// as long as a consistent view is needed.
func (m *Manager) Current() *Snapshot { return m.cur.Load() }

// Resolve returns the live snapshot's components — the answer.Substrate
// contract: one call per query pins that query to one consistent view.
func (m *Manager) Resolve() (kg.Reader, vecstore.Searcher, uint64) {
	s := m.cur.Load()
	return s.Store, s.Index, s.Epoch
}

// Epoch returns the live snapshot's epoch.
func (m *Manager) Epoch() uint64 { return m.cur.Load().Epoch }

// Source returns the managed KG source.
func (m *Manager) Source() kg.Source { return m.cur.Load().Store.Source() }

// IngestResult reports what one Ingest call did.
type IngestResult struct {
	// Added is how many triples were new; Skipped counts duplicates of
	// stored facts.
	Added   int `json:"added"`
	Skipped int `json:"skipped"`
	// Epoch is the snapshot epoch after the call (unchanged when nothing
	// was added).
	Epoch uint64 `json:"epoch"`
	// BaseTriples / DeltaTriples describe the post-call snapshot.
	BaseTriples  int `json:"base_triples"`
	DeltaTriples int `json:"delta_triples"`
}

// Ingest appends triples to the store and, if anything was new,
// publishes a fresh snapshot whose index covers them. Triples already
// stored are skipped, so ingestion is idempotent.
// Structurally empty triples are rejected.
//
// A triple with Ord 0 whose (subject, relation) already holds facts is
// treated as the *newest* value of a time-varying fact: its ordinal is
// assigned past the largest existing one, so "ingest the updated
// population" makes the new value current instead of sorting as the
// oldest. Pass an explicit non-zero Ord to place a value in history.
//
// When the delta reaches Config.CompactThreshold, a background
// compaction starts automatically.
//
// On a durable manager the batch is appended to the write-ahead log
// before any in-memory state changes (fsynced per the configured
// policy): a failed append rejects the ingest with nothing to roll
// back, and an acknowledged ingest survives a restart.
func (m *Manager) Ingest(triples []kg.Triple) (IngestResult, error) {
	if m.cfg.Replica {
		// Replicas have exactly one writer — the primary's shipped WAL. A
		// local ingest would fork the epoch chain: the same epoch number
		// would mean different content here and on the primary.
		return IngestResult{}, errors.New("substrate: manager is a replica; ingest on the primary")
	}
	for i, t := range triples {
		if t.Subject == "" || t.Relation == "" || t.Object == "" {
			return IngestResult{}, invalidTriplef("substrate: triple %d is missing a field: %v", i, t)
		}
		if strings.ContainsAny(t.Subject+t.Relation+t.Object, "<>\n\r") {
			// The persisted NT form delimits fields with angle brackets and
			// records with newlines; a field containing them would change
			// meaning across a checkpoint/replay round-trip.
			return IngestResult{}, invalidTriplef("substrate: triple %d contains a reserved character (one of '<', '>', newline): %v", i, t)
		}
		if strings.TrimSpace(t.Subject) != t.Subject || strings.TrimSpace(t.Relation) != t.Relation || strings.TrimSpace(t.Object) != t.Object {
			// The persisted NT form trims each field, so a checkpoint would
			// load a different triple than the one served before it.
			return IngestResult{}, invalidTriplef("substrate: triple %d has a field with leading or trailing whitespace: %q", i, []string{t.Subject, t.Relation, t.Object})
		}
		if len(t.Subject)+len(t.Relation)+len(t.Object) > maxTripleBytes {
			// kg.ReadNT scans checkpoint lines with a 1 MiB buffer; a
			// triple past that would be accepted now but make every future
			// checkpoint containing it unloadable at boot.
			return IngestResult{}, invalidTriplef("substrate: triple %d is %d bytes, over the %d-byte limit", i, len(t.Subject)+len(t.Relation)+len(t.Object), maxTripleBytes)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fresh, skipped := m.planLocked(triples)
	var snap *Snapshot
	if len(fresh) > 0 {
		if m.wal != nil {
			// Log-before-apply: the record carries the epoch the publish
			// below will create.
			if err := m.wal.append(m.epoch+1, fresh); err != nil {
				return IngestResult{}, failure.Wrap(failure.Storage, err)
			}
		}
		m.applyLocked(fresh)
		m.ingests.Add(1)
		snap = m.publishLocked()
		if m.wal != nil {
			// The snapshot is live, so a replica that applies this record
			// and answers at snap.Epoch serves exactly what we serve.
			m.notifyRepl(snap.Epoch, fresh)
		}
		m.autoCompactLocked()
	} else {
		snap = m.cur.Load()
	}
	return IngestResult{
		Added:        len(fresh),
		Skipped:      skipped,
		Epoch:        snap.Epoch,
		BaseTriples:  snap.BaseTriples,
		DeltaTriples: snap.DeltaTriples,
	}, nil
}

// autoCompactLocked starts a background compaction when the delta has
// reached Config.CompactThreshold. Caller holds m.mu.
func (m *Manager) autoCompactLocked() {
	if m.cfg.CompactThreshold <= 0 || m.store.Len()-m.baseRows < m.cfg.CompactThreshold {
		return
	}
	go func() {
		// ErrCompacting is not a failure: the compaction already running
		// leaves the new triples in the delta for the next trigger.
		if _, err := m.Compact(context.Background()); err != nil && !errors.Is(err, ErrCompacting) {
			log.Printf("substrate[%s]: auto-compaction: %v", m.Source(), err)
		}
	}()
}

// planLocked computes which of the batch's triples are actually new —
// duplicates of stored or earlier batch entries skipped, ordinals
// assigned — without mutating any state, so the WAL can log the exact
// stored forms before they are applied. Caller holds m.mu.
func (m *Manager) planLocked(triples []kg.Triple) (fresh []kg.Triple, skipped int) {
	seen := make(map[string]bool, len(triples))
	// pendingOrd tracks the largest ordinal planned per (subject,
	// relation) within this batch, so repeated time-varying values keep
	// accumulating past each other exactly as sequential ingests would.
	pendingOrd := make(map[string]int)
	for _, t := range triples {
		key := t.Key()
		if seen[key] || m.store.Contains(t) {
			skipped++
			continue
		}
		sr := t.SRKey()
		pending, planned := pendingOrd[sr]
		if t.Ord == 0 {
			max, found := m.maxOrdLocked(t.Subject, t.Relation)
			if planned {
				if !found || pending > max {
					max = pending
				}
				found = true
			}
			if found {
				t.Ord = max + 1
			}
		}
		if !planned || t.Ord > pending {
			pendingOrd[sr] = t.Ord
		}
		seen[key] = true
		fresh = append(fresh, t)
	}
	return fresh, skipped
}

// applyLocked appends planned triples to the store and their rows to the
// arena. Caller holds m.mu; the triples must come from planLocked against
// the current state.
func (m *Manager) applyLocked(fresh []kg.Triple) {
	batch := make([]kg.Triple, 0, len(fresh))
	for _, t := range fresh {
		if _, ok := m.store.Add(t); ok { // always, for planned triples
			batch = append(batch, t)
		}
	}
	m.arena.Append(batch)
}

// maxOrdLocked returns the largest ordinal stored for (subject, relation)
// — the last of its Ord-ordered list — and whether the pair holds any
// facts at all. Caller holds m.mu.
func (m *Manager) maxOrdLocked(subject, relation string) (int, bool) {
	ts := m.store.SubjectRelation(subject, relation)
	if len(ts) == 0 {
		return 0, false
	}
	return ts[len(ts)-1].Ord, true
}

// publishLocked builds and swaps in a snapshot of the current master
// state. Caller holds m.mu. The snapshot reads a view of the rows the
// store and the arena hold now (kg.Store.Prefix, vecstore.Arena.View), so
// publish copies nothing: its cost is the latest batch's encoding, not
// the substrate's size.
func (m *Manager) publishLocked() *Snapshot {
	m.epoch++
	return m.republishLocked()
}

// republishLocked builds and swaps in a snapshot of the current master
// state at the CURRENT epoch, without bumping it. Only correct when the
// content at this epoch is unchanged — the replica-mode compaction, which
// serves the same triple set, so cache entries stamped with this epoch
// stay valid. Caller holds m.mu.
func (m *Manager) republishLocked() *Snapshot {
	n := m.store.Len()
	prefix := m.store.Prefix(n)
	view := m.arena.View(prefix.Triples())
	var index vecstore.Searcher = view
	if m.baseANN != nil {
		// Approximate over the graph-covered rows, exact over the rows
		// ingested since, merged per query. The same counters carry across
		// publishes.
		index = vecstore.NewHybrid(view, m.baseANN, vecstore.HybridOptions{
			EfSearch: m.cfg.ANN.EfSearch,
			Counters: &m.annCounters,
		})
	}
	snap := &Snapshot{
		Epoch:        m.epoch,
		Store:        prefix,
		Index:        index,
		BaseTriples:  m.baseRows,
		DeltaTriples: n - m.baseRows,
		view:         view,
		graph:        m.baseANN,
	}
	m.cur.Store(snap)
	return snap
}

// Compact makes the rows published so far the base and publishes a new
// epoch over them. The store and the arena are untouched, so every read of
// the triple set is too, and nothing is re-encoded. With ANN the graph is
// rebuilt over the new base — the expensive part, run outside the writer
// lock so ingest stays live during compaction; rows ingested while it
// builds are scanned exactly.
// Returns ErrCompacting if another compaction is in flight. A compaction
// with no rows past the base is a no-op returning the current snapshot.
func (m *Manager) Compact(ctx context.Context) (*Snapshot, error) {
	m.mu.Lock()
	if m.compacting {
		m.mu.Unlock()
		return nil, ErrCompacting
	}
	n := m.store.Len()
	if n == m.baseRows {
		snap := m.cur.Load()
		m.mu.Unlock()
		return snap, nil
	}
	m.compacting = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.compacting = false
		m.mu.Unlock()
	}()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The graph build is the expensive part of an ANN compaction; it runs
	// here, outside the writer lock, so ingest stays live while the graph
	// grows.
	newANN := m.graphOver(n)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.wal != nil && !m.cfg.Replica {
		// Log-before-apply, as Ingest does: a zero-triple epoch marker for
		// the epoch the publish below creates, so the WAL records every
		// publish — a recovery that replays the log never resumes below an
		// epoch clients saw, and replicas see a contiguous record chain
		// across compactions. A failed append fails the compaction with
		// nothing swapped rather than publishing an epoch the log skips:
		// recovery refuses a chain with a hole in it (ChainGapError), and
		// the checkpoint below that would cover the hole may fail too.
		if err := m.wal.append(m.epoch+1, nil); err != nil {
			m.mu.Unlock()
			return nil, failure.Wrap(failure.Storage, fmt.Errorf("substrate: compaction epoch marker: %w", err))
		}
	}
	m.baseRows = n
	m.baseANN = newANN
	m.compactions.Add(1)
	var snap *Snapshot
	if m.cfg.Replica {
		// Epoch-frozen: the compaction serves the same triple set, and the
		// replica's epoch must keep meaning exactly what the primary's
		// does. No marker is logged either — the local WAL holds only
		// records shipped from the primary.
		snap = m.republishLocked()
	} else {
		snap = m.publishLocked()
		if m.wal != nil {
			m.notifyRepl(snap.Epoch, nil)
		}
	}
	m.mu.Unlock()

	if m.durable {
		// Compaction is the natural checkpoint moment: the delta just
		// became the base, so persisting now keeps the WAL short.
		if _, err := m.Checkpoint(ctx); err != nil && !errors.Is(err, ErrCheckpointing) {
			log.Printf("substrate[%s]: checkpoint after compaction: %v", m.Source(), err)
		}
	}
	return snap, nil
}

// Stats is a point-in-time summary of the manager.
type Stats struct {
	Epoch        uint64 `json:"epoch"`
	BaseTriples  int    `json:"base_triples"`
	DeltaTriples int    `json:"delta_triples"`
	Shards       int    `json:"shards"`
	Ingests      int64  `json:"ingests"`
	Compactions  int64  `json:"compactions"`
	// ANN describes the approximate index layer — graph size, levels,
	// the beam in effect, and how traffic split between graph and exact
	// fallback. Nil when Config.ANN is disabled.
	ANN *vecstore.ANNInfo `json:"ann,omitempty"`
	// Durability reports persistence counters; Enabled is false for
	// memory-only managers.
	Durability DurabilityStats `json:"durability"`
}

// DurabilityStats summarises the persistence layer of one manager.
type DurabilityStats struct {
	Enabled bool `json:"enabled"`
	// Fsync is the configured WAL sync policy (always/interval/never).
	Fsync string `json:"fsync,omitempty"`
	// WALRecords / WALBytes / WALSyncs count appends since boot.
	WALRecords int64 `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	WALSyncs   int64 `json:"wal_syncs"`
	// Checkpoints counts checkpoints written since boot;
	// LastCheckpointEpoch is the epoch of the newest one.
	Checkpoints         int64  `json:"checkpoints"`
	LastCheckpointEpoch uint64 `json:"last_checkpoint_epoch"`
	// Recovery describes what boot recovery restored.
	Recovery RecoveryInfo `json:"recovery"`
}

// Stats summarises the live snapshot and the writer counters.
func (m *Manager) Stats() Stats {
	snap := m.cur.Load()
	st := Stats{
		Epoch:        snap.Epoch,
		BaseTriples:  snap.BaseTriples,
		DeltaTriples: snap.DeltaTriples,
		Shards:       snap.view.Shards(),
		Ingests:      m.ingests.Load(),
		Compactions:  m.compactions.Load(),
	}
	if snap.graph != nil {
		// The beam in effect is the Hybrid's (HybridOptions.EfSearch).
		info := snap.graph.Info()
		info.EfSearch = m.cfg.ANN.EfSearch
		if info.EfSearch <= 0 {
			info.EfSearch = vecstore.DefaultHNSWEfSearch
		}
		info.Searches = m.annCounters.Searches.Load()
		info.Fallbacks = m.annCounters.Fallbacks.Load()
		st.ANN = &info
	}
	if m.durable {
		st.Durability = DurabilityStats{
			Enabled:             true,
			Fsync:               m.cfg.Durability.Fsync.String(),
			WALRecords:          m.wal.records.Load(),
			WALBytes:            m.wal.bytes.Load(),
			WALSyncs:            m.wal.syncs.Load(),
			Checkpoints:         m.checkpoints.Load(),
			LastCheckpointEpoch: m.lastCheckpointEpoch.Load(),
			Recovery:            m.recovery,
		}
	}
	return st
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("substrate: epoch %d, %d base + %d delta triples, %d shards, %d ingests, %d compactions",
		s.Epoch, s.BaseTriples, s.DeltaTriples, s.Shards, s.Ingests, s.Compactions)
}
