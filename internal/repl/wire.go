// Package repl implements WAL-shipping replication for the substrate
// layer: a primary pgakvd streams its write-ahead log to read replicas
// over HTTP, replicas apply the records through the normal ingest path
// at exactly the primary's epochs, and a thin router (cmd/pgakvlb)
// load-balances reads across caught-up replicas while forwarding writes
// to the primary.
//
// The package splits into four pieces:
//
//   - wire.go: the stream framing shared by both ends. Records travel
//     in the substrate's own WAL payload encoding, re-framed with a
//     kind byte so heartbeats can interleave with records.
//   - source.go: the primary-side HTTP handlers (/v1/repl/info,
//     /v1/repl/stream, /v1/repl/bootstrap) mounted on any durable
//     pgakvd.
//   - applier.go + bootstrap.go: the replica side — a pre-flight
//     checkpoint bootstrap when the primary's log no longer reaches
//     back to local state, then a reconnecting stream-apply loop.
//   - router.go: the load-balancer core behind cmd/pgakvlb.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/substrate"
)

// Aliases for the substrate types the wire carries, so the package's
// interfaces read in its own vocabulary.
type (
	WALRecord = substrate.WALRecord
	WALSub    = substrate.WALSub
)

// streamMagic opens every /v1/repl/stream body so a replica talking to
// the wrong endpoint (a proxy error page, an old binary) fails fast
// instead of mis-parsing frames.
const streamMagic = "PGAKRPL1"

// Frame kinds. Records carry one WAL record in the substrate's payload
// encoding; heartbeats carry the primary's current head epoch so a
// replica can compute lag even when no records flow.
const (
	kindRecord    byte = 1
	kindHeartbeat byte = 2
)

// streamWriter frames records and heartbeats onto one stream. Frame
// layout: [1-byte kind] then the substrate's WAL frame (AppendFrame):
// [u32 LE payload len][u32 LE CRC-32 (IEEE) of payload][payload]. The
// CRC is defense against infrastructure between the nodes (proxies,
// buffers) — the record bytes themselves are re-checksummed by the
// replica's own WAL append.
type streamWriter struct {
	w io.Writer
}

func newStreamWriter(w io.Writer) *streamWriter { return &streamWriter{w: w} }

func (sw *streamWriter) writeMagic() error {
	_, err := io.WriteString(sw.w, streamMagic)
	return err
}

func (sw *streamWriter) writeFrame(kind byte, payload []byte) error {
	_, err := sw.w.Write(substrate.AppendFrame([]byte{kind}, payload))
	return err
}

func (sw *streamWriter) writeRecord(rec substrate.WALRecord) error {
	return sw.writeFrame(kindRecord, substrate.EncodeWALRecord(rec))
}

func (sw *streamWriter) writeHeartbeat(head uint64) error {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], head)
	return sw.writeFrame(kindHeartbeat, p[:])
}

// frame is one decoded stream frame: exactly one of Record (kind 1) or
// Head (kind 2) is meaningful, per Kind.
type frame struct {
	Kind   byte
	Record substrate.WALRecord
	Head   uint64
}

// streamReader decodes the frames a streamWriter produced.
type streamReader struct {
	r *bufio.Reader
}

func newStreamReader(r io.Reader) *streamReader {
	return &streamReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// readMagic consumes and verifies the stream preamble.
func (sr *streamReader) readMagic() error {
	buf := make([]byte, len(streamMagic))
	if _, err := io.ReadFull(sr.r, buf); err != nil {
		return fmt.Errorf("repl: reading stream magic: %w", err)
	}
	if string(buf) != streamMagic {
		return fmt.Errorf("repl: bad stream magic %q (not a replication stream)", buf)
	}
	return nil
}

// next reads one frame. io.EOF (clean close between frames) is returned
// verbatim; any mid-frame truncation surfaces as ErrUnexpectedEOF.
func (sr *streamReader) next() (frame, error) {
	kind, err := sr.r.ReadByte()
	if err != nil {
		return frame{}, err
	}
	payload, err := substrate.ReadFrame(sr.r)
	if err != nil {
		if err == io.EOF { // the kind byte was read: this is mid-frame
			err = io.ErrUnexpectedEOF
		}
		return frame{}, fmt.Errorf("repl: reading frame: %w", err)
	}
	switch kind {
	case kindRecord:
		rec, err := substrate.DecodeWALRecord(payload)
		if err != nil {
			return frame{}, fmt.Errorf("repl: decoding record frame: %w", err)
		}
		return frame{Kind: kindRecord, Record: rec}, nil
	case kindHeartbeat:
		if len(payload) != 8 {
			return frame{}, fmt.Errorf("repl: heartbeat payload is %d bytes, want 8", len(payload))
		}
		return frame{Kind: kindHeartbeat, Head: binary.LittleEndian.Uint64(payload)}, nil
	default:
		return frame{}, fmt.Errorf("repl: unknown frame kind %d", kind)
	}
}
