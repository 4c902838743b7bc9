package kg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestNTRoundTrip(t *testing.T) {
	st := newTestStore(t)
	var buf bytes.Buffer
	if err := st.WriteNT(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadNT(&buf, SourceWikidata)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != st.Len() {
		t.Fatalf("round trip lost triples: %d != %d", loaded.Len(), st.Len())
	}
	for _, tr := range st.All() {
		found := false
		for _, got := range loaded.SubjectRelation(tr.Subject, tr.Relation) {
			if got.Object == tr.Object && got.Ord == tr.Ord {
				found = true
			}
		}
		if !found {
			t.Errorf("round trip lost %v (ord %d)", tr, tr.Ord)
		}
	}
}

func TestNTOrdSuffix(t *testing.T) {
	st := newTestStore(t)
	var buf bytes.Buffer
	if err := st.WriteNT(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "@ord=2") {
		t.Errorf("ord suffix missing:\n%s", buf.String())
	}
}

func TestReadNTSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n<a> <r> <x>\n  \n<b> <r> <y> @ord=3\n"
	st, err := ReadNT(strings.NewReader(in), SourceFreebase)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("loaded %d triples, want 2", st.Len())
	}
	got := st.Subject("b")
	if len(got) != 1 || got[0].Ord != 3 {
		t.Errorf("ord not restored: %+v", got)
	}
}

func TestReadNTErrors(t *testing.T) {
	if _, err := ReadNT(strings.NewReader("<broken line"), SourceWikidata); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := ReadNT(strings.NewReader("<a> <b> <c> @ord=x"), SourceWikidata); err == nil {
		t.Error("bad ord suffix accepted")
	}
}

// TestReadNTErrorsCarryLineNumbers: parse failures are *LineError
// values pointing at the offending 1-based line, so WAL-replay and
// checkpoint-load diagnostics can name the bad input.
func TestReadNTErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name  string
		input string
		line  int
	}{
		{"first line", "<broken", 1},
		{"after valid lines", "<a> <b> <c>\n# comment\n<d> <e> <f>\n<broken", 4},
		{"bad ord", "<a> <b> <c>\n<d> <e> <f> @ord=x", 2},
		{"blank lines still counted", "\n\n<broken", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadNT(strings.NewReader(tc.input), SourceWikidata)
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			var le *LineError
			if !errors.As(err, &le) {
				t.Fatalf("error %v is not a *LineError", err)
			}
			if le.Line != tc.line {
				t.Errorf("error line = %d, want %d (err: %v)", le.Line, tc.line, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("line %d", tc.line)) {
				t.Errorf("message %q does not name line %d", err.Error(), tc.line)
			}
		})
	}
}

// TestParseNTLine covers the single-line parser ReadNT and the
// substrate WAL codec share.
func TestParseNTLine(t *testing.T) {
	if _, ok, err := ParseNTLine("   "); ok || err != nil {
		t.Errorf("blank line: ok=%v err=%v", ok, err)
	}
	if _, ok, err := ParseNTLine("# comment"); ok || err != nil {
		t.Errorf("comment: ok=%v err=%v", ok, err)
	}
	tr, ok, err := ParseNTLine("<s> <r> <o> @ord=4")
	if err != nil || !ok {
		t.Fatalf("valid line: ok=%v err=%v", ok, err)
	}
	if tr.Subject != "s" || tr.Ord != 4 {
		t.Errorf("parsed %+v", tr)
	}
	if NTLine(tr) != "<s> <r> <o> @ord=4" {
		t.Errorf("NTLine round trip produced %q", NTLine(tr))
	}
	if _, _, err := ParseNTLine("<unterminated"); err == nil {
		t.Error("unterminated bracket accepted")
	}
}

// TestJSONRoundTrip decodes WriteJSON's document with encoding/json and
// checks it carries what a reader needs to rebuild the store: the source,
// every triple in ID order, and each triple's Ord, so time-varying facts
// can be put back in order.
func TestJSONRoundTrip(t *testing.T) {
	st := newTestStore(t)
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Source  string `json:"source"`
		Triples []struct {
			S   string `json:"s"`
			R   string `json:"r"`
			O   string `json:"o"`
			Ord int    `json:"ord"`
		} `json:"triples"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Source != st.Source().String() {
		t.Errorf("source = %q, want %q", doc.Source, st.Source())
	}
	if len(doc.Triples) != st.Len() {
		t.Fatalf("wrote %d triples, store holds %d", len(doc.Triples), st.Len())
	}
	var pops []Triple
	for i, tr := range st.All() {
		got := doc.Triples[i]
		if got.S != tr.Subject || got.R != tr.Relation || got.O != tr.Object || got.Ord != tr.Ord {
			t.Errorf("triple %d written as %+v, want %v @ord=%d", i, got, tr, tr.Ord)
		}
		if got.S == "China" && got.R == "population" {
			pops = append(pops, Triple{Object: got.O, Ord: got.Ord})
		}
	}
	// Time-varying ordering must be recoverable from the written ords.
	slices.SortStableFunc(pops, func(a, b Triple) int { return a.Ord - b.Ord })
	if len(pops) != 3 || pops[2].Object != "1443497378" {
		t.Errorf("ord ordering lost: %v", pops)
	}
}
