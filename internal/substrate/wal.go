package substrate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kg"
)

// SyncPolicy says when the WAL fsyncs appended records to stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) flushes appended records to the OS on
	// every append and fsyncs on a background timer (every DefaultSyncEvery).
	// A crash of the process loses nothing; a crash of the machine loses
	// at most one interval of ingests.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every appended record: an acknowledged
	// ingest survives even a machine crash, at the cost of one fsync per
	// ingest batch on the write path.
	SyncAlways
	// SyncNever never fsyncs; records still reach the OS on every append,
	// so only a machine crash (not a process crash) can lose them.
	SyncNever
)

// String renders the policy as its flag value.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseSyncPolicy converts a -fsync flag value to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("substrate: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// walMagic opens every WAL file; the version byte bumps on incompatible
// record-format changes.
var walMagic = [8]byte{'P', 'G', 'A', 'K', 'W', 'A', 'L', 1}

// WALRecord is one logged publish, and the replication unit: the epoch
// the publish created and the triples it added. Zero triples is an epoch
// marker (a compaction or boot publish): the epoch advances, the content
// does not.
type WALRecord struct {
	Epoch   uint64
	Triples []kg.Triple
}

// encodeWALPayload renders a record payload: epoch, triple count, then
// each triple as a length-prefixed NT line (kg.NTLine).
func encodeWALPayload(epoch uint64, triples []kg.Triple) []byte {
	var buf bytes.Buffer
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], epoch)
	buf.Write(u64[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(triples)))
	buf.Write(u32[:])
	for _, t := range triples {
		line := kg.NTLine(t)
		binary.LittleEndian.PutUint32(u32[:], uint32(len(line)))
		buf.Write(u32[:])
		buf.WriteString(line)
	}
	return buf.Bytes()
}

// DecodeWALRecord parses an encodeWALPayload buffer (EncodeWALRecord).
// Triple parse errors carry their record-local line via *kg.LineError, so
// replay diagnostics can point at the offending entry.
func DecodeWALRecord(p []byte) (WALRecord, error) {
	if len(p) < 12 {
		return WALRecord{}, fmt.Errorf("substrate: wal payload too short (%d bytes)", len(p))
	}
	rec := WALRecord{Epoch: binary.LittleEndian.Uint64(p[:8])}
	count := binary.LittleEndian.Uint32(p[8:12])
	p = p[12:]
	for i := 0; i < int(count); i++ {
		if len(p) < 4 {
			return WALRecord{}, fmt.Errorf("substrate: wal payload truncated at triple %d", i)
		}
		n := binary.LittleEndian.Uint32(p[:4])
		p = p[4:]
		if int(n) > len(p) {
			return WALRecord{}, fmt.Errorf("substrate: wal payload truncated at triple %d", i)
		}
		t, ok, err := kg.ParseNTLine(string(p[:n]))
		if err != nil {
			return WALRecord{}, &kg.LineError{Line: i + 1, Err: err}
		}
		if !ok {
			return WALRecord{}, fmt.Errorf("substrate: wal triple %d is empty", i)
		}
		p = p[n:]
		rec.Triples = append(rec.Triples, t)
	}
	if len(p) != 0 {
		return WALRecord{}, fmt.Errorf("substrate: wal payload has %d trailing bytes", len(p))
	}
	return rec, nil
}

// wal is the ingest write-ahead log: an append-only file of checksummed,
// length-prefixed records, one per published ingest batch (plus zero-triple
// epoch markers for compaction publishes). Appends happen under the
// manager's writer lock, so records are in non-decreasing epoch order —
// which is what lets truncation drop a checkpointed prefix by epoch alone.
type wal struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	policy SyncPolicy
	// dirty says bytes reached the OS since the last fsync (SyncInterval's
	// background flusher checks it to skip idle syncs).
	dirty bool

	records atomic.Int64
	bytes   atomic.Int64
	syncs   atomic.Int64
}

// openWAL opens (creating if needed) the log at path for appending. A new
// file gets the magic header; an existing one is appended to as-is — the
// caller must have truncated any torn tail first (see replayWAL).
func openWAL(path string, policy SyncPolicy) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("substrate: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("substrate: stat wal: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("substrate: write wal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("substrate: sync wal header: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("substrate: seek wal: %w", err)
	}
	return &wal{path: path, f: f, policy: policy}, nil
}

// append logs one record and, under SyncAlways, fsyncs it before
// returning. The caller (Manager.Ingest) appends BEFORE mutating any
// in-memory state, so a failed append leaves nothing to roll back.
func (w *wal) append(epoch uint64, triples []kg.Triple) error {
	payload := encodeWALPayload(epoch, triples)
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("substrate: wal record of %d bytes exceeds the %d-byte limit", len(payload), MaxFramePayload)
	}
	frame := AppendFrame(nil, payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("substrate: wal is closed or broken")
	}
	off, err := w.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("substrate: wal append: %w", err)
	}
	if _, err := w.f.Write(frame); err != nil {
		// Roll the partial frame back so later acknowledged records don't
		// land after garbage — with length-prefix framing, recovery cannot
		// scan past a torn frame, so anything appended after one would be
		// silently lost. If the rollback itself fails, break the log:
		// rejecting future ingests loudly beats acknowledging writes that
		// a recovery will never see.
		if terr := w.f.Truncate(off); terr != nil {
			w.f.Close()
			w.f = nil
			return fmt.Errorf("substrate: wal append failed (%v) and rollback failed (%v): log is broken, rejecting further writes", err, terr)
		}
		if _, serr := w.f.Seek(off, io.SeekStart); serr != nil {
			w.f.Close()
			w.f = nil
			return fmt.Errorf("substrate: wal append failed (%v) and reseek failed (%v): log is broken, rejecting further writes", err, serr)
		}
		return fmt.Errorf("substrate: wal append: %w", err)
	}
	w.dirty = true
	w.records.Add(1)
	w.bytes.Add(int64(len(frame)))
	if w.policy == SyncAlways {
		return w.syncLocked()
	}
	return nil
}

// sync fsyncs pending bytes (no-op when nothing is dirty or the log is
// closed).
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil || !w.dirty {
		return nil
	}
	return w.syncLocked()
}

func (w *wal) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("substrate: wal sync: %w", err)
	}
	w.dirty = false
	w.syncs.Add(1)
	return nil
}

// truncateThrough drops every record with epoch <= through — the prefix a
// checkpoint at that epoch now covers. The survivors are rewritten to a
// temporary file that atomically replaces the log, so a crash mid-truncate
// leaves either the old or the new file, never a hybrid.
func (w *wal) truncateThrough(through uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("substrate: wal is closed")
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("substrate: wal sync: %w", err)
	}
	recs, _, _, err := replayWAL(w.path)
	if err != nil {
		return err
	}
	tmp := w.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("substrate: wal truncate: %w", err)
	}
	if _, err := nf.Write(walMagic[:]); err != nil {
		nf.Close()
		return fmt.Errorf("substrate: wal truncate: %w", err)
	}
	for _, rec := range recs {
		if rec.Epoch <= through {
			continue
		}
		if _, err := nf.Write(AppendFrame(nil, EncodeWALRecord(rec))); err != nil {
			nf.Close()
			return fmt.Errorf("substrate: wal truncate: %w", err)
		}
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return fmt.Errorf("substrate: wal truncate: %w", err)
	}
	if err := nf.Close(); err != nil {
		return fmt.Errorf("substrate: wal truncate: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return fmt.Errorf("substrate: wal truncate: %w", err)
	}
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		return err
	}
	old := w.f
	nf, err = os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		// The old handle now points at the unlinked pre-truncation inode;
		// appending there would acknowledge writes no recovery can read.
		// Break the log instead so further ingests fail loudly.
		old.Close()
		w.f = nil
		return fmt.Errorf("substrate: wal reopen after truncation: %w (log is broken, rejecting further writes)", err)
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		old.Close()
		w.f = nil
		return fmt.Errorf("substrate: wal reopen after truncation: %w (log is broken, rejecting further writes)", err)
	}
	w.f = nf
	w.dirty = false
	old.Close()
	return nil
}

// close fsyncs and closes the log. Further appends fail.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// replayWAL reads every intact record from the log at path. It returns
// the records, the byte offset of the end of the last intact record
// (the valid prefix length), and how many torn/corrupt trailing records
// were dropped. A missing file is an empty log. Torn tails — a partial
// frame or a checksum mismatch — end the scan: with length-prefix
// framing there is no way to resynchronise past a bad record, and
// appends are ordered, so everything after the first bad frame is
// unreliable by construction.
func replayWAL(path string) (recs []WALRecord, validBytes int64, torn int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("substrate: open wal: %w", err)
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		// Shorter than a header: treat the whole file as a torn write.
		return nil, 0, 1, nil
	}
	if magic != walMagic {
		return nil, 0, 0, fmt.Errorf("substrate: bad wal magic %v", magic)
	}
	validBytes = int64(len(walMagic))
	for {
		payload, err := ReadFrame(f)
		if err == io.EOF {
			return recs, validBytes, torn, nil
		}
		if err != nil {
			return recs, validBytes, torn + 1, nil
		}
		rec, err := DecodeWALRecord(payload)
		if err != nil {
			return recs, validBytes, torn + 1, nil
		}
		recs = append(recs, rec)
		validBytes += int64(8 + len(payload))
	}
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("substrate: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("substrate: sync dir %s: %w", dir, err)
	}
	return nil
}

// flusher runs the SyncInterval background fsync loop until stop is
// closed.
func (w *wal) flusher(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(DefaultSyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = w.sync()
		case <-stop:
			return
		}
	}
}
