package answer

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/prompts"
	"repro/internal/vecstore"
)

// Reads is the substrate read log of one run: every call the method made
// on the kg.Reader and vecstore.Searcher it was handed, with each call's
// result, plus the prompt view the run rendered with and the Substrate the
// reads came from. A run's answer is a function of its question, its
// prompts, its LLM completions and these reads; the completions are a
// function of the prompts, and the prompts of the question, the view and
// the reads. So if every read returns the identical result against a later
// snapshot and the view is unchanged, a fresh run there would answer
// exactly what this one did — Revalidate checks that, and the serving
// cache keeps an answer across an epoch change when it holds.
//
// The log is compact and immutable once the run returns: arguments and
// results are encoded into one byte slice, a triple as its ID (a triple ID
// names the same triple for a node's lifetime: ingest appends, compaction
// keeps IDs) and a score as its float64 bits. Every read a method can
// make — the four kg.Reader calls and Searcher.BatchSearchWith — is a
// function of the snapshot's triple set, so every log replays.
type Reads struct {
	substrate Substrate
	prompts   *prompts.Registry
	// fingerprint is the prompt view the run rendered with.
	fingerprint string
	// encode is the query encoder the run's batch searches used; replay
	// reuses it so its searches cost what the run's did. Nil when the run
	// made none, and so has no search to replay.
	encode func(string) embed.Vector
	at     vecstore.Token // names the index view the run searched
	ops    []byte
}

// At returns the Token of the index view the run searched, whose top k
// the logged hit lists are, so the log's first Revalidate may be passed
// it (the package comment's incremental rule); the zero Token on a nil
// log, or when the run searched no arena view.
func (r *Reads) At() vecstore.Token {
	if r == nil {
		return vecstore.Token{}
	}
	return r.at
}

// Size returns the encoded log's length in bytes.
func (r *Reads) Size() int {
	if r == nil {
		return 0
	}
	return len(r.ops)
}

// segmented is an index view of an arena's first rows (vecstore.Sharded
// and vecstore.Hybrid): the views the incremental rule applies to.
type segmented interface {
	// Token names the view by its watermark.
	Token() vecstore.Token
	// Since reports whether the view is past t's watermark and, when it
	// is, returns the rows from the watermark on.
	Since(t vecstore.Token) (*vecstore.Suffix, bool)
}

var (
	_ segmented = (*vecstore.Sharded)(nil)
	_ segmented = (*vecstore.Hybrid)(nil)
)

// Revalidation is what a log that replayed exactly was replayed against.
type Revalidation struct {
	// Epoch is the snapshot's.
	Epoch uint64
	// At names the snapshot's index view by its watermark (the zero Token
	// when the index is not an arena view). The log's searches now
	// return exactly their logged results there, so a later Revalidate
	// passed At may search only the rows added since.
	At vecstore.Token
	// Incremental is set when the searches ran on the rows past the
	// watermark Revalidate was passed, each falling back to the whole view
	// only where the incremental rule cannot decide.
	Incremental bool
}

// Revalidate replays the log against the substrate's current snapshot,
// with q's prompt-version overrides resolved against the prompt registry
// as they are now. It reports where, and true, when every read returns
// exactly what it returned to the run and the prompt view's fingerprint
// is unchanged; false otherwise, or on a nil log.
//
// since is the At of this log's last successful revalidation, or the zero
// Token. When the snapshot's index is past it (vecstore.Sharded.Since),
// the searches run on the rows past the watermark and a logged list is
// checked against them (the package comment's incremental rule); every
// other read is replayed in full. Safe for concurrent use.
func (r *Reads) Revalidate(q Query, since vecstore.Token) (Revalidation, bool) {
	if r == nil {
		return Revalidation{}, false
	}
	view, err := r.prompts.Resolve(q.PromptVersions)
	if err != nil || view.Fingerprint() != r.fingerprint {
		return Revalidation{}, false
	}
	store, index, epoch := r.substrate.Resolve()
	rv := Revalidation{Epoch: epoch}
	var added *vecstore.Suffix
	if seg, ok := index.(segmented); ok {
		rv.At = seg.Token()
		added, rv.Incremental = seg.Since(since)
	}
	if !r.replay(store, index, added) {
		return Revalidation{}, false
	}
	return rv, true
}

type readLogKey struct{}

// WithReadLog asks the run answering under ctx to return its read log in
// Result.Reads. The serving cache sets it on the runs that fill it;
// nothing else pays for recording.
func WithReadLog(ctx context.Context) context.Context {
	return context.WithValue(ctx, readLogKey{}, true)
}

func wantsReadLog(ctx context.Context) bool {
	on, _ := ctx.Value(readLogKey{}).(bool)
	return on
}

// static is the Substrate of an answerer bound to a fixed store and index:
// one snapshot, epoch 0, forever.
type static struct {
	store kg.Reader
	index vecstore.Searcher
}

func (s static) Resolve() (kg.Reader, vecstore.Searcher, uint64) { return s.store, s.index, 0 }

// Read-log op codes: one byte per call, then its arguments, then its
// result.
const (
	opSubject         byte = iota + 1 // subject; result: triples
	opSubjectRelation                 // subject, relation; result: triples
	opHasSubject                      // subject; result: ok
	opFindSubjectFold                 // query; result: ok, canonical
	opBatchSearch                     // n, n queries, k; result: n hit lists
)

// recorder encodes one run's reads. Methods may read from several
// goroutines, so appends are serialised; replay checks each read on its
// own, so their order does not matter.
type recorder struct {
	mu  sync.Mutex
	buf []byte
	// encode is the first batch search's query encoder, and at the
	// searched view's Token.
	encode func(string) embed.Vector
	at     vecstore.Token
}

// reads seals the log.
func (rec *recorder) reads(sub Substrate, reg *prompts.Registry, fingerprint string) *Reads {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	// A copy of exactly its length: the cache keeps the log for the
	// entry's lifetime.
	return &Reads{substrate: sub, prompts: reg, fingerprint: fingerprint, encode: rec.encode, at: rec.at, ops: bytes.Clone(rec.buf)}
}

// log appends one read with f.
func (rec *recorder) log(f func(b []byte) []byte) {
	rec.mu.Lock()
	rec.buf = f(rec.buf)
	rec.mu.Unlock()
}

func appendNum(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

func appendStr(b []byte, s string) []byte { return append(appendNum(b, len(s)), s...) }

func appendFlag(b []byte, ok bool) []byte {
	if ok {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendTriples encodes a result list as its length and the IDs, each as
// the signed difference from the one before: a subject's triples are
// mostly adjacent, so most IDs cost a byte.
func appendTriples(b []byte, ts []kg.Triple) []byte {
	b = appendNum(b, len(ts))
	prev := 0
	for _, t := range ts {
		b = binary.AppendVarint(b, int64(t.ID-prev))
		prev = t.ID
	}
	return b
}

// appendHits encodes a hit list as appendTriples does its triples, each
// ID followed by the score's float64 bits.
func appendHits(b []byte, hs []vecstore.Hit) []byte {
	b = appendNum(b, len(hs))
	prev := 0
	for _, h := range hs {
		b = binary.AppendVarint(b, int64(h.Triple.ID-prev))
		prev = h.Triple.ID
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.Score))
	}
	return b
}

// recordingReader logs every call on a kg.Reader.
type recordingReader struct {
	r kg.Reader
	*recorder
}

var _ kg.Reader = recordingReader{}

func (w recordingReader) Subject(s string) []kg.Triple {
	ts := w.r.Subject(s)
	w.log(func(b []byte) []byte { return appendTriples(appendStr(append(b, opSubject), s), ts) })
	return ts
}

func (w recordingReader) SubjectRelation(s, r string) []kg.Triple {
	ts := w.r.SubjectRelation(s, r)
	w.log(func(b []byte) []byte {
		return appendTriples(appendStr(appendStr(append(b, opSubjectRelation), s), r), ts)
	})
	return ts
}

func (w recordingReader) HasSubject(s string) bool {
	ok := w.r.HasSubject(s)
	w.log(func(b []byte) []byte { return appendFlag(appendStr(append(b, opHasSubject), s), ok) })
	return ok
}

func (w recordingReader) FindSubjectFold(q string) (string, bool) {
	s, ok := w.r.FindSubjectFold(q)
	w.log(func(b []byte) []byte {
		return appendStr(appendFlag(appendStr(append(b, opFindSubjectFold), q), ok), s)
	})
	return s, ok
}

// recordingSearcher logs every call on a vecstore.Searcher.
type recordingSearcher struct {
	s vecstore.Searcher
	*recorder
}

var _ vecstore.Searcher = recordingSearcher{}

// Encoder is not logged: a Substrate's encoder never changes.
func (w recordingSearcher) Encoder() *embed.Encoder { return w.s.Encoder() }

func (w recordingSearcher) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]vecstore.Hit {
	per := w.s.BatchSearchWith(encode, queries, k)
	w.log(func(b []byte) []byte {
		if w.encode == nil {
			w.encode = encode
			if seg, ok := w.s.(segmented); ok {
				w.at = seg.Token()
			}
		}
		b = appendNum(append(b, opBatchSearch), len(queries))
		for _, q := range queries {
			b = appendStr(b, q)
		}
		b = appendNum(b, k)
		for _, hits := range per {
			b = appendHits(b, hits)
		}
		return b
	})
	return per
}

// replayer decodes a log. Any malformed field sets bad, which fails the
// replay: a log that does not decode proves nothing.
type replayer struct {
	buf []byte
	bad bool
}

func (p *replayer) op() byte {
	if len(p.buf) == 0 {
		p.bad = true
		return 0
	}
	b := p.buf[0]
	p.buf = p.buf[1:]
	return b
}

func (p *replayer) num() int {
	v, n := binary.Uvarint(p.buf)
	if n <= 0 || v > math.MaxInt32 {
		p.bad = true
		return 0
	}
	p.buf = p.buf[n:]
	return int(v)
}

func (p *replayer) delta() int {
	v, n := binary.Varint(p.buf)
	if n <= 0 || v > math.MaxInt32 || v < math.MinInt32 {
		p.bad = true
		return 0
	}
	p.buf = p.buf[n:]
	return int(v)
}

func (p *replayer) flag() bool { return p.op() == 1 }

func (p *replayer) str() string {
	n := p.num()
	if n > len(p.buf) {
		p.bad = true
		return ""
	}
	s := string(p.buf[:n])
	p.buf = p.buf[n:]
	return s
}

// sameTriples reports whether ts is the recorded triple list.
func (p *replayer) sameTriples(ts []kg.Triple) bool {
	if p.num() != len(ts) {
		return false
	}
	prev := 0
	for _, t := range ts {
		prev += p.delta()
		if t.ID != prev {
			return false
		}
	}
	return !p.bad
}

// sameHits reports whether hs is the recorded hit list, IDs and score
// bits alike.
func (p *replayer) sameHits(hs []vecstore.Hit) bool {
	if p.num() != len(hs) {
		return false
	}
	prev := 0
	for _, h := range hs {
		prev += p.delta()
		if h.Triple.ID != prev || len(p.buf) < 8 || binary.LittleEndian.Uint64(p.buf) != math.Float64bits(h.Score) {
			return false
		}
		p.buf = p.buf[8:]
	}
	return !p.bad
}

// stands decodes a logged hit list — the top k of the view at the
// watermark the log last replayed exactly at — and reports whether it is
// still the top k once fresh, the suffix's top k, joins it, and whether
// that is sure: it stands when fresh is empty, or the list is full and
// fresh's best hit scores below its last; it does not when fresh is not
// empty and the list is short, or the best hit scores above the last. An
// equal score is unsure: which of tied rows a block's heap keeps depends on
// the block's rows before the watermark.
func (p *replayer) stands(fresh []vecstore.Hit, k int) (stands, sure bool) {
	n := p.num()
	var bits uint64
	for range n {
		p.delta()
		if p.bad || len(p.buf) < 8 {
			p.bad = true
			return false, true
		}
		bits = binary.LittleEndian.Uint64(p.buf)
		p.buf = p.buf[8:]
	}
	switch {
	case p.bad:
		return false, true
	case len(fresh) == 0:
		return true, true
	case n != k:
		return false, true
	}
	last := math.Float64frombits(bits)
	return fresh[0].Score < last, fresh[0].Score != last
}

// replay re-issues every logged read against store and index and reports
// whether each returned exactly its logged result. With added non-nil —
// index's rows past the watermark of the view the log last replayed
// exactly against — searches run on added and each logged list is checked
// against its suffix hits instead, by the incremental rule.
func (r *Reads) replay(store kg.Reader, index vecstore.Searcher, added *vecstore.Suffix) bool {
	p := &replayer{buf: r.ops}
	for len(p.buf) > 0 {
		var same bool
		switch p.op() {
		case opSubject:
			same = p.sameTriples(store.Subject(p.str()))
		case opSubjectRelation:
			s, rel := p.str(), p.str()
			same = p.sameTriples(store.SubjectRelation(s, rel))
		case opHasSubject:
			ok := store.HasSubject(p.str())
			same = ok == p.flag()
		case opFindSubjectFold:
			got, ok := store.FindSubjectFold(p.str())
			same = ok == p.flag() && got == p.str()
		case opBatchSearch:
			n := p.num()
			if n > len(p.buf) {
				return false
			}
			queries := make([]string, n)
			for i := range queries {
				queries[i] = p.str()
			}
			k := p.num()
			same = !p.bad && r.searched(p, index, added, queries, k)
		}
		if !same || p.bad {
			return false
		}
	}
	return true
}

// searched checks one logged batch search of queries at k, the hit lists
// next in p, against index, or against added by the incremental rule.
func (r *Reads) searched(p *replayer, index vecstore.Searcher, added *vecstore.Suffix, queries []string, k int) bool {
	if added == nil {
		for _, hits := range index.BatchSearchWith(r.encode, queries, k) {
			if !p.sameHits(hits) {
				return false
			}
		}
		return true
	}
	fresh, flipped := added.BatchSearchWith(r.encode, queries, k)
	for i, hits := range fresh {
		at := p.buf
		if !flipped[i] {
			if stands, sure := p.stands(hits, k); sure {
				if !stands {
					return false
				}
				continue
			}
			p.buf = at
		}
		if !p.sameHits(index.BatchSearchWith(r.encode, queries[i:i+1], k)[0]) {
			return false
		}
	}
	return true
}
