package substrate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// MaxFramePayload bounds one frame's payload so a corrupted length prefix
// fails cleanly instead of attempting a huge read. Ingest batches are
// capped far below it.
const MaxFramePayload = 64 << 20

// AppendFrame appends payload to dst as one checksummed, length-prefixed
// frame — [u32 LE length][u32 LE CRC-32 (IEEE) of payload][payload] — the
// record framing of the WAL file and, behind a kind byte, of the
// replication stream.
func AppendFrame(dst, payload []byte) []byte {
	dst = slices.Grow(dst, 8+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// ReadFrame reads one AppendFrame frame and returns its payload. It
// returns io.EOF only when r ends exactly on a frame boundary; a frame cut
// short is io.ErrUnexpectedEOF, and a length over MaxFramePayload or a
// checksum mismatch is an error too. With length-prefix framing there is
// no resynchronising past any of them.
func ReadFrame(r io.Reader) ([]byte, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(head[:4])
	if n > MaxFramePayload {
		return nil, fmt.Errorf("substrate: frame of %d bytes exceeds the %d-byte limit", n, MaxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(head[4:]); got != want {
		return nil, fmt.Errorf("substrate: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	return payload, nil
}
