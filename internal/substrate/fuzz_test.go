package substrate

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// formatOneWALs returns the WAL files of the format-1 data directories
// under testdata: real logs a durable manager wrote.
func formatOneWALs(f *testing.F) [][]byte {
	f.Helper()
	paths, err := filepath.Glob("testdata/format1-*/*/" + walName)
	if err != nil || len(paths) == 0 {
		f.Fatalf("no format-1 WAL under testdata (%v)", err)
	}
	var out [][]byte
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if !bytes.HasPrefix(b, walMagic[:]) {
			f.Fatalf("%s does not open with the WAL magic", path)
		}
		out = append(out, b)
	}
	return out
}

// FuzzReadFrame: frames are read from the WAL file at boot and from the
// replication stream. Whatever the bytes, ReadFrame must not panic, must
// return io.EOF only on a frame boundary, and every frame it accepts must
// re-encode (AppendFrame) to exactly the bytes it consumed. Seeds: the
// format-1 WAL files' frames.
func FuzzReadFrame(f *testing.F) {
	for _, wal := range formatOneWALs(f) {
		f.Add(wal[len(walMagic):])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			at := len(data) - r.Len()
			p, err := ReadFrame(r)
			if err == io.EOF && at != len(data) {
				t.Fatalf("io.EOF at byte %d of %d: not a frame boundary", at, len(data))
			}
			if err != nil {
				return
			}
			if got, read := AppendFrame(nil, p), data[at:len(data)-r.Len()]; !bytes.Equal(got, read) {
				t.Fatalf("frame at byte %d re-encodes to %x, read from %x", at, got, read)
			}
		}
	})
}

// FuzzDecodeWALRecord: record payloads are decoded from the WAL at boot
// and from the replication stream. Whatever the bytes, DecodeWALRecord
// must not panic, and a record it accepts must decode to itself again
// once re-encoded: what a replica logs and replays is what the primary
// applied. Seeds: every record payload of the format-1 WAL files.
func FuzzDecodeWALRecord(f *testing.F) {
	for _, wal := range formatOneWALs(f) {
		r := bytes.NewReader(wal[len(walMagic):])
		for {
			p, err := ReadFrame(r)
			if err != nil {
				break
			}
			f.Add(p)
		}
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := DecodeWALRecord(p)
		if err != nil {
			return
		}
		again, err := DecodeWALRecord(EncodeWALRecord(rec))
		if err != nil {
			t.Fatalf("%+v re-encoded does not decode: %v", rec, err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("%+v re-encoded decodes to %+v", rec, again)
		}
	})
}
