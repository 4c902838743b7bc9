package substrate

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kg"
)

// TestWALGoldenBytes pins the log's bytes on disk — magic, then one
// AppendFrame record per publish: logs written by earlier builds must
// still replay, whatever else comes to use the frame codec. The records
// are a two-triple batch at epoch 7, then an epoch marker at 8.
func TestWALGoldenBytes(t *testing.T) {
	const golden = "5047414b57414c01" +
		"340000005be9c747" + "0700000000000000" + "02000000" +
		"0b000000" + "3c533e203c723e203c4f3e" +
		"15000000" + "3c53323e203c72323e203c4f323e20406f72643d33" +
		"0c00000091b0d97d" + "0800000000000000" + "00000000"
	path := filepath.Join(t.TempDir(), walName)
	w, err := openWAL(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	batch := []kg.Triple{{Subject: "S", Relation: "r", Object: "O"}, {Subject: "S2", Relation: "r2", Object: "O2", Ord: 3}}
	if err := w.append(7, batch); err != nil {
		t.Fatal(err)
	}
	if err := w.append(8, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != golden {
		t.Fatalf("wal bytes changed:\n got %x\nwant %s", got, golden)
	}
}

// TestReadFrameEveryPrefix: of a two-frame stream, only the prefixes that
// end on a frame boundary read cleanly to io.EOF; every other one yields
// the whole frames before the cut and then io.ErrUnexpectedEOF.
func TestReadFrameEveryPrefix(t *testing.T) {
	first, second := []byte("first payload"), []byte{}
	stream := AppendFrame(AppendFrame(nil, first), second)
	boundaries := map[int]int{0: 0, 8 + len(first): 1, len(stream): 2}
	for cut := 0; cut <= len(stream); cut++ {
		r := bytes.NewReader(stream[:cut])
		frames := 0
		var err error
		for {
			var p []byte
			if p, err = ReadFrame(r); err != nil {
				break
			}
			if want := [][]byte{first, second}[frames]; !bytes.Equal(p, want) {
				t.Fatalf("cut %d: frame %d = %q, want %q", cut, frames, p, want)
			}
			frames++
		}
		if want, clean := boundaries[cut]; clean {
			if err != io.EOF || frames != want {
				t.Errorf("cut %d (a boundary): %d frames then %v, want %d then io.EOF", cut, frames, err, want)
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut %d (mid-frame): %d frames then %v, want io.ErrUnexpectedEOF", cut, frames, err)
		}
	}
}

// TestReadFrameRejects: a length past the limit fails before any
// allocation, and a payload that does not match its checksum fails.
func TestReadFrameRejects(t *testing.T) {
	good := AppendFrame(nil, []byte("payload"))
	for name, doctor := range map[string]func(b []byte){
		"over-limit length": func(b []byte) { binary.LittleEndian.PutUint32(b, MaxFramePayload+1) },
		"flipped payload":   func(b []byte) { b[len(b)-1] ^= 0xff },
		"flipped checksum":  func(b []byte) { b[4] ^= 0x01 },
	} {
		bad := bytes.Clone(good)
		doctor(bad)
		if p, err := ReadFrame(bytes.NewReader(bad)); err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: ReadFrame = %q, %v; want a framing error", name, p, err)
		}
	}
}
