package vecstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/embed"
	"repro/internal/kg"
)

// persistMagic identifies the binary index format; the version byte bumps
// on incompatible changes.
var persistMagic = [8]byte{'P', 'G', 'A', 'K', 'V', 'I', 'X', 1}

// expMask is the float32 exponent field; all ones means NaN or ±Inf.
const expMask = 0x7f800000

// WriteTo serialises the index (triples + vectors) in a compact binary
// format, so large KGs can be indexed once and reloaded instantly. Vectors
// are written dense — each packed row is expanded as it is written — so the
// format does not depend on the in-memory row layout. The inverted token
// index is rebuilt on load (it is derived data and cheaper to rebuild than
// to store).
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	count := func(n int, err error) error {
		written += int64(n)
		return err
	}
	if err := count(bw.Write(persistMagic[:])); err != nil {
		return written, fmt.Errorf("vecstore: write: %w", err)
	}
	writeU32 := func(v uint32) error {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		return count(bw.Write(buf[:]))
	}
	writeString := func(s string) error {
		if err := writeU32(uint32(len(s))); err != nil {
			return err
		}
		return count(bw.WriteString(s))
	}
	if err := writeU32(uint32(len(idx.triples))); err != nil {
		return written, fmt.Errorf("vecstore: write: %w", err)
	}
	if err := writeU32(uint32(embed.Dim)); err != nil {
		return written, fmt.Errorf("vecstore: write: %w", err)
	}
	for i, t := range idx.triples {
		for _, s := range []string{t.Subject, t.Relation, t.Object} {
			if err := writeString(s); err != nil {
				return written, fmt.Errorf("vecstore: write triple %d: %w", i, err)
			}
		}
		var meta [8]byte
		binary.LittleEndian.PutUint32(meta[:4], uint32(t.Source))
		binary.LittleEndian.PutUint32(meta[4:], uint32(t.Ord))
		if err := count(bw.Write(meta[:])); err != nil {
			return written, fmt.Errorf("vecstore: write triple %d: %w", i, err)
		}
		var v embed.Vector
		idx.rows.expand(i, &v)
		var vec [4 * embed.Dim]byte
		for d, x := range v {
			binary.LittleEndian.PutUint32(vec[d*4:], math.Float32bits(x))
		}
		if err := count(bw.Write(vec[:])); err != nil {
			return written, fmt.Errorf("vecstore: write vector %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return written, fmt.Errorf("vecstore: flush: %w", err)
	}
	return written, nil
}

// ReadFrom loads an index written by WriteTo; the encoder must match the
// one used at build time (queries are encoded live). Every vector
// component must be finite: a NaN score could never be evicted from a
// top-k heap, and the packed kernel's bit-identity with embed.NormDot
// holds for finite values only.
func ReadFrom(r io.Reader, enc *embed.Encoder) (*Index, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("vecstore: read: %w", err)
	}
	if magic != persistMagic {
		return nil, fmt.Errorf("vecstore: bad magic %v", magic)
	}
	readU32 := func() (uint32, error) {
		var buf [4]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:]), nil
	}
	readString := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("vecstore: string length %d too large", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	n, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("vecstore: read count: %w", err)
	}
	dim, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("vecstore: read dim: %w", err)
	}
	if dim != embed.Dim {
		return nil, fmt.Errorf("vecstore: dimension mismatch: file has %d, build has %d", dim, embed.Dim)
	}
	if n > maxRows {
		return nil, fmt.Errorf("vecstore: triple count %d too large", n)
	}
	// Grow incrementally instead of trusting n for the allocation: a
	// corrupted count field must fail cleanly at the first short read, not
	// attempt a multi-gigabyte up-front allocation.
	const preallocCap = 1 << 16
	initial := int(n)
	if initial > preallocCap {
		initial = preallocCap
	}
	triples := make([]kg.Triple, 0, initial)
	var rows packedRows
	rows.reserve(initial)
	for i := 0; i < int(n); i++ {
		var t kg.Triple
		if t.Subject, err = readString(); err != nil {
			return nil, fmt.Errorf("vecstore: triple %d: %w", i, err)
		}
		if t.Relation, err = readString(); err != nil {
			return nil, fmt.Errorf("vecstore: triple %d: %w", i, err)
		}
		if t.Object, err = readString(); err != nil {
			return nil, fmt.Errorf("vecstore: triple %d: %w", i, err)
		}
		var meta [8]byte
		if _, err := io.ReadFull(br, meta[:]); err != nil {
			return nil, fmt.Errorf("vecstore: triple %d: %w", i, err)
		}
		t.Source = kg.Source(binary.LittleEndian.Uint32(meta[:4]))
		t.Ord = int(binary.LittleEndian.Uint32(meta[4:]))
		t.ID = i
		var vec [4 * embed.Dim]byte
		if _, err := io.ReadFull(br, vec[:]); err != nil {
			return nil, fmt.Errorf("vecstore: vector %d: %w", i, err)
		}
		var v embed.Vector
		for d := range v {
			b := binary.LittleEndian.Uint32(vec[d*4:])
			if b&expMask == expMask {
				return nil, fmt.Errorf("vecstore: vector %d: component %d is not finite (bits %#08x)", i, d, b)
			}
			v[d] = math.Float32frombits(b)
		}
		triples = append(triples, t)
		rows.appendRow(&v)
	}
	return newIndex(enc, triples, rows), nil
}
