package repl

import (
	"archive/tar"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/substrate"
)

// formatOneDir is a data directory a durable manager wrote: a checkpoint
// and a WAL.
const formatOneDir = "../substrate/testdata/format1-exact/wikidata"

// walMagicLen is the length of the preamble every WAL file opens with.
const walMagicLen = 8

// formatOneStream returns a replication stream carrying the format-1
// WAL's records, with a heartbeat after each.
func formatOneStream(f *testing.F) []byte {
	f.Helper()
	wal, err := os.ReadFile(filepath.Join(formatOneDir, "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	sw := newStreamWriter(&buf)
	if err := sw.writeMagic(); err != nil {
		f.Fatal(err)
	}
	r := bytes.NewReader(wal[walMagicLen:])
	records := 0
	for {
		p, err := substrate.ReadFrame(r)
		if err != nil {
			break
		}
		rec, err := substrate.DecodeWALRecord(p)
		if err != nil {
			f.Fatal(err)
		}
		if err := sw.writeRecord(rec); err != nil {
			f.Fatal(err)
		}
		if err := sw.writeHeartbeat(rec.Epoch); err != nil {
			f.Fatal(err)
		}
		records++
	}
	if records == 0 {
		f.Fatal("the format-1 WAL holds no record")
	}
	return buf.Bytes()
}

// FuzzStreamReader: a replica reads the replication stream from its
// primary over the network. Whatever the bytes, the stream reader must
// not panic, and every frame it accepts must re-encode through
// streamWriter and read back equal: what a replica applies is what the
// primary sent. Seeds: the format-1 WAL's records as a stream, and the
// golden stream of TestWireGoldenBytes.
func FuzzStreamReader(f *testing.F) {
	f.Add(formatOneStream(f))
	var golden bytes.Buffer
	sw := newStreamWriter(&golden)
	_ = sw.writeMagic()
	_ = sw.writeRecord(WALRecord{Epoch: 8})
	_ = sw.writeHeartbeat(42)
	f.Add(golden.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		sr := newStreamReader(bytes.NewReader(data))
		if err := sr.readMagic(); err != nil {
			return
		}
		for {
			fr, err := sr.next()
			if err != nil {
				return
			}
			var buf bytes.Buffer
			sw := newStreamWriter(&buf)
			switch fr.Kind {
			case kindRecord:
				err = sw.writeRecord(fr.Record)
			case kindHeartbeat:
				err = sw.writeHeartbeat(fr.Head)
			default:
				t.Fatalf("accepted a frame of kind %d", fr.Kind)
			}
			if err != nil {
				t.Fatal(err)
			}
			again, err := newStreamReader(&buf).next()
			if err != nil {
				t.Fatalf("%+v re-encoded does not read back: %v", fr, err)
			}
			if !reflect.DeepEqual(again, fr) {
				t.Fatalf("%+v re-encoded reads back as %+v", fr, again)
			}
		}
	})
}

// tarOf builds an archive of regular files, in order; a name ending in
// "/" becomes a directory entry.
func tarOf(t testing.TB, entries ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, name := range entries {
		hdr := &tar.Header{Name: name, Mode: 0o644, Typeflag: tar.TypeReg, Size: int64(len(name))}
		if strings.HasSuffix(name, "/") {
			hdr.Typeflag, hdr.Mode, hdr.Size = tar.TypeDir, 0o755, 0
		}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(tw, name[:hdr.Size]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// regularEntries returns an archive's regular files by cleaned name, the
// last one winning where a name repeats, as unpacking leaves them.
func regularEntries(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	tr := tar.NewReader(bytes.NewReader(data))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return files
		}
		if err != nil {
			t.Fatalf("unpacked an archive that does not read: %v", err)
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("unpacked an archive whose entry %q does not read: %v", hdr.Name, err)
		}
		files[filepath.Clean(hdr.Name)] = body
	}
}

// FuzzUnpackCheckpoint: a replica unpacks the checkpoint archive its
// primary sends into its own data directory. Whatever the bytes,
// unpacking must not panic; when it fails it leaves nothing under the data
// directory; when it succeeds the data directory holds exactly one
// checkpoint-<epoch>/ directory, of the epoch it returned, whose files
// are the archive's regular entries, and nothing else — no .bootstrap-*
// working directory. Seeds: the format-1 checkpoint as packCheckpoint
// ships it, and archives with an entry that climbs out (../), an
// absolute path, two checkpoint roots and a nested path.
func FuzzUnpackCheckpoint(f *testing.F) {
	var packed bytes.Buffer
	if err := packCheckpoint(&packed, filepath.Join(formatOneDir, "checkpoint-0000000000000004")); err != nil {
		f.Fatal(err)
	}
	f.Add(packed.Bytes())
	const root = "checkpoint-0000000000000009/"
	f.Add(tarOf(f, root+"MANIFEST.json", root+"triples.nt"))
	f.Add(tarOf(f, root+"MANIFEST.json", "../"+root+"triples.nt"))
	f.Add(tarOf(f, "/"+root+"MANIFEST.json"))
	f.Add(tarOf(f, root+"MANIFEST.json", "checkpoint-000000000000000a/MANIFEST.json"))
	f.Add(tarOf(f, root+"MANIFEST.json", root+"sub/", root+"sub/triples.nt"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dataDir := t.TempDir()
		dir, epoch, err := unpackCheckpoint(bytes.NewReader(data), dataDir)
		left, rerr := os.ReadDir(dataDir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if len(left) > 0 {
				t.Fatalf("failed (%v) and left %s under the data dir", err, left[0].Name())
			}
			return
		}
		if len(left) != 1 || !left[0].IsDir() || dir != filepath.Join(dataDir, left[0].Name()) {
			t.Fatalf("unpacked to %s; the data dir holds %v", dir, left)
		}
		if ep, ok := substrate.ParseCheckpointDir(left[0].Name()); !ok || ep != epoch {
			t.Fatalf("unpacked %s, returned epoch %d", left[0].Name(), epoch)
		}
		want := regularEntries(t, data)
		got, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("unpacked %d entries, the archive has %d regular files", len(got), len(want))
		}
		for _, e := range got {
			name := filepath.Join(left[0].Name(), e.Name())
			body, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil || !e.Type().IsRegular() {
				t.Fatalf("unpacked %s is not a regular file (%v)", name, err)
			}
			if wantBody, ok := want[name]; !ok || !bytes.Equal(body, wantBody) {
				t.Fatalf("unpacked %s is not the archive's entry (present %v)", name, ok)
			}
		}
	})
}
