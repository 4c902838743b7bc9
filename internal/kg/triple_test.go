package kg

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTripleString(t *testing.T) {
	tr := NewTriple("China", "population", "1443497378")
	want := "<China> <population> <1443497378>"
	if got := tr.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestTripleText(t *testing.T) {
	tr := NewTriple("Lake Superior", "area", "82350")
	if got := tr.Text(); got != "Lake Superior area 82350" {
		t.Errorf("Text() = %q", got)
	}
}

func TestParseTriple(t *testing.T) {
	tests := []struct {
		in      string
		want    Triple
		wantErr bool
	}{
		{"<a> <b> <c>", Triple{Subject: "a", Relation: "b", Object: "c"}, false},
		{"  <Lake Superior> <area> <82350>  ", Triple{Subject: "Lake Superior", Relation: "area", Object: "82350"}, false},
		{"<a> <b>", Triple{}, true},                    // two fields
		{"<a> <b> <c> <d>", Triple{}, true},            // four fields
		{"<a> <b <c>", Triple{}, false},                // nested: "b <c" closes at first '>' => 2 fields -> err
		{"no brackets here", Triple{}, true},           // none
		{"<Allen Newell> <made Sora>", Triple{}, true}, // the paper's malformed example
	}
	for _, tt := range tests {
		got, err := ParseTriple(tt.in)
		if tt.in == "<a> <b <c>" {
			// This parses as 2 fields and must error.
			if err == nil {
				t.Errorf("ParseTriple(%q): expected error, got %v", tt.in, got)
			}
			continue
		}
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseTriple(%q): expected error, got %v", tt.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTriple(%q): %v", tt.in, err)
			continue
		}
		if !got.Equal(tt.want) {
			t.Errorf("ParseTriple(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// TestParseTripleRoundTrip: parsing a rendered triple recovers the triple,
// for any field content free of angle brackets and newlines.
func TestParseTripleRoundTrip(t *testing.T) {
	clean := func(s string) string {
		s = strings.Map(func(r rune) rune {
			switch r {
			case '<', '>', '\n':
				return -1
			}
			return r
		}, s)
		return strings.TrimSpace(s)
	}
	f := func(s, r, o string) bool {
		s, r, o = clean(s), clean(r), clean(o)
		if s == "" || r == "" || o == "" {
			return true // rendering empty fields is out of contract
		}
		in := Triple{Subject: s, Relation: r, Object: o}
		got, err := ParseTriple(in.String())
		return err == nil && got.Equal(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphSubjectsOrder(t *testing.T) {
	g := NewGraph(
		NewTriple("b", "r", "x"),
		NewTriple("a", "r", "y"),
		NewTriple("b", "r2", "z"),
	)
	got := g.Subjects()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Errorf("Subjects() = %v, want [b a]", got)
	}
}

func TestGraphDedup(t *testing.T) {
	g := NewGraph(
		NewTriple("a", "r", "x"),
		NewTriple("a", "r", "x"),
		NewTriple("a", "r", "y"),
	)
	d := g.Dedup()
	if d.Len() != 2 {
		t.Errorf("Dedup() kept %d triples, want 2", d.Len())
	}
	if g.Len() != 3 {
		t.Errorf("Dedup() mutated the receiver: len=%d", g.Len())
	}
}

func TestGraphDedupIdempotent(t *testing.T) {
	f := func(raw []uint8) bool {
		g := &Graph{}
		for _, b := range raw {
			g.Add(NewTriple(string('a'+rune(b%5)), "r", string('x'+rune(b%3))))
		}
		once := g.Dedup()
		twice := once.Dedup()
		if once.Len() != twice.Len() {
			return false
		}
		for i := range once.Triples {
			if !once.Triples[i].Equal(twice.Triples[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphContains(t *testing.T) {
	g := NewGraph(NewTriple("a", "r", "x"))
	if !g.Contains(NewTriple("a", "r", "x")) {
		t.Error("Contains should find the triple")
	}
	if g.Contains(NewTriple("a", "r", "y")) {
		t.Error("Contains found a non-member")
	}
	if !g.ContainsSR("a", "r") {
		t.Error("ContainsSR should find (a, r)")
	}
	if g.ContainsSR("a", "q") {
		t.Error("ContainsSR found absent relation")
	}
}

func TestGraphEntityBlocks(t *testing.T) {
	g := NewGraph(
		NewTriple("Lake Superior", "area", "82350"),
		NewTriple("Lake Michigan", "area", "57750"),
		NewTriple("Lake Superior", "connects with", "Keweenaw Waterway"),
	)
	out := g.EntityBlocks([]string{"Lake Superior", "Lake Michigan"})
	if !strings.Contains(out, "[entity_0]:") || !strings.Contains(out, "[entity_1]:") {
		t.Fatalf("EntityBlocks missing headers:\n%s", out)
	}
	// Superior's two triples must appear before Michigan's block.
	supIdx := strings.Index(out, "Keweenaw")
	michIdx := strings.Index(out, "Lake Michigan")
	if supIdx < 0 || michIdx < 0 || supIdx > michIdx {
		t.Errorf("block ordering wrong:\n%s", out)
	}
}

func TestParseGraphSkipsHeaders(t *testing.T) {
	text := "[entity_0]:\n<a> <r> <x>\n\n[entity_1]:\n<b> <r> <y>\n"
	g, err := ParseGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Errorf("ParseGraph kept %d triples, want 2", g.Len())
	}
}

func TestParseGraphRoundTripEntityBlocks(t *testing.T) {
	g := NewGraph(
		NewTriple("a", "r", "x"),
		NewTriple("b", "r", "y"),
		NewTriple("a", "r2", "z"),
	)
	parsed, err := ParseGraph(g.EntityBlocks(g.Subjects()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != g.Len() {
		t.Errorf("round trip lost triples: %d != %d", parsed.Len(), g.Len())
	}
	for _, tr := range g.Triples {
		if !parsed.Contains(tr) {
			t.Errorf("round trip lost %v", tr)
		}
	}
}

func TestParseGraphMalformedLine(t *testing.T) {
	if _, err := ParseGraph("<a> <b> <c>\n<broken <"); err == nil {
		t.Error("expected error on malformed triple line")
	}
}

func TestSourceRoundTrip(t *testing.T) {
	for _, src := range []Source{SourceUnknown, SourceWikidata, SourceFreebase} {
		got, err := ParseSource(src.String())
		if err != nil {
			t.Fatalf("ParseSource(%q): %v", src.String(), err)
		}
		if got != src {
			t.Errorf("ParseSource(%q) = %v, want %v", src.String(), got, src)
		}
	}
	if _, err := ParseSource("dbpedia"); err == nil {
		t.Error("expected error for unknown source")
	}
}

func TestGraphClone(t *testing.T) {
	g := NewGraph(NewTriple("a", "r", "x"))
	c := g.Clone()
	c.Triples[0].Object = "mutated"
	if g.Triples[0].Object != "x" {
		t.Error("Clone shares backing storage")
	}
}

// TestGraphStringsJoinIsString holds the equality trace.Attribute relies
// on: a record's rendered triples joined by newlines are the graph's
// String, for an empty graph too.
func TestGraphStringsJoinIsString(t *testing.T) {
	for _, g := range []*Graph{
		NewGraph(),
		NewGraph(NewTriple("Lake Superior", "area", "82350")),
		NewGraph(NewTriple("a", "r", "x"), NewTriple("a", "r2", "y"), NewTriple("b", "r", "x")),
	} {
		if got, want := strings.Join(g.Strings(), "\n"), g.String(); got != want {
			t.Errorf("joined Strings() = %q, String() = %q", got, want)
		}
	}
}
