package trace

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrNotFound reports a record ID the store does not hold.
var ErrNotFound = errors.New("trace: record not found")

// errClosed refuses every call on a closed store.
var errClosed = errors.New("trace: store is closed")

// ListOptions filter a List call.
type ListOptions struct {
	// Limit caps the result count; <= 0 returns everything.
	Limit int
	// Method keeps only records of one method (case-insensitive); empty
	// keeps all.
	Method string
}

// StoreStats is a point-in-time store summary.
type StoreStats struct {
	// Records is the number of live, decodable records.
	Records int `json:"records"`
	// Dropped counts the lines skipped at open (torn tails, corrupt
	// lines, IDs that are not "t<seq>", repeated sequence numbers) plus
	// records that failed to append.
	Dropped int `json:"dropped"`
	// Bytes is the store's current on-disk size.
	Bytes int64 `json:"bytes"`
	// Path locates the backing file.
	Path string `json:"path,omitempty"`
}

// traceFileName is the single JSONL file a FileStore appends to.
const traceFileName = "traces.jsonl"

// FileStore is the trace store: one append-only JSONL file, one record
// per line, safe for concurrent use. Append assigns the record's ID
// ("t%06d", the next sequence number) and wall time; List returns
// newest-first. Opening an existing store recovers its index by
// scanning; a torn final line (a crash mid-append) is physically
// truncated away and counted, and corrupt interior lines are skipped and
// counted, so a damaged store always reopens with every decodable record
// intact.
//
// The index is one slice of line locations sorted by sequence number, so
// an ID finds its line by binary search. Lines are append-only and a
// located line never changes, so readers copy the slice header under the
// lock and read the file outside it: a long List never holds up Append.
type FileStore struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	end     int64  // append offset
	lines   []line // ascending seq, no duplicates
	dropped int
	now     func() time.Time // test hook
}

// line locates one record line inside the file.
type line struct {
	seq int
	off int64
	len int
}

// NewFileStore opens (creating if needed) the JSONL trace store in dir.
func NewFileStore(dir string) (*FileStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("trace: file store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: create store dir: %w", err)
	}
	path := filepath.Join(dir, traceFileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trace: open store: %w", err)
	}
	s := &FileStore{f: f, path: path, now: time.Now}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recover scans the file, building the sequence index, skipping corrupt
// lines and lines whose ID is not "t<seq>", and truncating a torn
// (unterminated) tail. A file out of sequence order is sorted once; of two
// lines with one sequence number the first in the file is kept.
func (s *FileStore) recover() error {
	r := bufio.NewReaderSize(s.f, 1<<16)
	var off int64
	for {
		buf, err := r.ReadBytes('\n')
		if err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("trace: scan store: %w", err)
		}
		if len(buf) > 0 && buf[len(buf)-1] != '\n' {
			// Torn tail: a crash mid-append left an unterminated line.
			// Truncate it away so the next append starts a clean line.
			s.dropped++
			if terr := s.f.Truncate(off); terr != nil {
				return fmt.Errorf("trace: truncate torn tail: %w", terr)
			}
			break
		}
		if len(buf) > 0 {
			rec, derr := Decode(buf)
			seq, ok := parseSeq(rec.ID)
			if derr != nil || !ok {
				s.dropped++
			} else {
				s.lines = append(s.lines, line{seq: seq, off: off, len: len(buf)})
			}
			off += int64(len(buf))
		}
		if errors.Is(err, io.EOF) {
			break
		}
	}
	bySeq := func(a, b line) int { return cmp.Compare(a.seq, b.seq) }
	if !slices.IsSortedFunc(s.lines, bySeq) {
		slices.SortStableFunc(s.lines, bySeq)
	}
	n := len(s.lines)
	// Clone drops the growth slack: a reopened index costs 24 B a record.
	s.lines = slices.Clone(slices.CompactFunc(s.lines, func(a, b line) bool { return a.seq == b.seq }))
	s.dropped += n - len(s.lines)
	s.end = off
	return nil
}

// parseSeq extracts the numeric part of a "t%06d" record ID.
func parseSeq(id string) (int, bool) {
	if !strings.HasPrefix(id, "t") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Append stamps the record with the next sequence ID and the current
// wall time, encodes it, and writes it as one line.
func (s *FileStore) Append(rec Record) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return Record{}, errClosed
	}
	seq := 1
	if n := len(s.lines); n > 0 {
		seq = s.lines[n-1].seq + 1
	}
	if seq < 1 { // a recovered ID at the top of the int range
		s.dropped++
		return Record{}, errors.New("trace: sequence numbers exhausted")
	}
	stamped := rec.Stamp(fmt.Sprintf("t%06d", seq), s.now())
	buf, err := Encode(stamped)
	if err != nil {
		s.dropped++
		return Record{}, err
	}
	if _, err := s.f.WriteAt(buf, s.end); err != nil {
		s.dropped++
		return Record{}, fmt.Errorf("trace: append record: %w", err)
	}
	s.lines = append(s.lines, line{seq: seq, off: s.end, len: len(buf)})
	s.end += int64(len(buf))
	return stamped, nil
}

// snapshot returns the file and the index as they stand. Entries below
// the returned length never change, so the caller reads them unlocked.
func (s *FileStore) snapshot() (*os.File, []line, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil, nil, errClosed
	}
	return s.f, s.lines, nil
}

// readRecord decodes the record at one index entry.
func readRecord(f *os.File, l line) (Record, error) {
	buf := make([]byte, l.len)
	if _, err := f.ReadAt(buf, l.off); err != nil {
		return Record{}, fmt.Errorf("trace: read record t%06d: %w", l.seq, err)
	}
	return Decode(buf)
}

// Get returns the record with the given ID.
func (s *FileStore) Get(id string) (Record, error) {
	f, lines, err := s.snapshot()
	if err != nil {
		return Record{}, err
	}
	seq, ok := parseSeq(id)
	i, found := slices.BinarySearchFunc(lines, seq, func(l line, seq int) int { return cmp.Compare(l.seq, seq) })
	if !ok || !found {
		return Record{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	rec, err := readRecord(f, lines[i])
	if err == nil && rec.ID != id {
		// Another spelling of the number ("t1" for "t000001").
		return Record{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return rec, err
}

// List returns records newest-first, optionally filtered by method.
func (s *FileStore) List(opts ListOptions) ([]Record, error) {
	f, lines, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	var out []Record
	for i := len(lines) - 1; i >= 0; i-- {
		if opts.Limit > 0 && len(out) >= opts.Limit {
			break
		}
		rec, err := readRecord(f, lines[i])
		if err != nil {
			return nil, err
		}
		if opts.Method != "" && !strings.EqualFold(opts.Method, rec.Method) {
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// Stats summarises the store. Safe on a nil store (all zeros).
func (s *FileStore) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Records: len(s.lines),
		Dropped: s.dropped,
		Bytes:   s.end,
		Path:    s.path,
	}
}

// Close closes the backing file; the store refuses further appends and
// reads afterwards.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
