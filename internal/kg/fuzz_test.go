package kg

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadNT: a checkpoint's triples.nt is the only content it holds, read
// back with ReadNT at boot and on a replica's bootstrap. Whatever the
// bytes, ReadNT must not panic, and a store it accepts must read back as
// the same triples — fields, ordinals and IDs — once written with WriteNT.
// Seeds: the triples.nt files of the substrate's format-1 checkpoints.
func FuzzReadNT(f *testing.F) {
	paths, err := filepath.Glob("../substrate/testdata/format1-*/*/checkpoint-*/triples.nt")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no format-1 checkpoint under the substrate's testdata (%v)", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadNT(bytes.NewReader(data), SourceWikidata)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := st.WriteNT(&buf); err != nil {
			t.Fatal(err)
		}
		written := buf.String()
		again, err := ReadNT(&buf, SourceWikidata)
		if err != nil {
			t.Fatalf("%q written back does not read: %v", written, err)
		}
		if got, want := again.All(), st.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("written back and read again:\n got %v\nwant %v", got, want)
		}
	})
}
