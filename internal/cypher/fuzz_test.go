package cypher

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// fuzzSeeds covers the grammar's surface: valid scripts, both statement
// keywords, plus the malformed shapes an LLM actually produces (truncation,
// unbalanced delimiters, stray unicode, half-written properties). The
// MATCH seeds are malformed input too: MATCH is not part of the grammar.
var fuzzSeeds = []string{
	"",
	"CREATE (c:Country {name: 'China'})",
	"CREATE (c:Country {name: 'China'})-[:CAPITAL]->(b:City {name: 'Beijing'})",
	"CREATE (a:Person {name: 'Ada', born: 1815})-[:WROTE]->(n:Work {name: 'Notes'})",
	"CREATE (a)-[:KNOWS]->(b), (b)-[:KNOWS]->(c)",
	"MATCH (c:Country) RETURN c.name",
	"MATCH (c:Country {name: 'China'})-[:CAPITAL]->(x) RETURN x",
	"MATCH (c) WHERE c.name = 'China' RETURN c",
	"MERGE (c:Country {name: 'China'})",
	"CREATE (c:Country {name: 'China'})\nCREATE (c)-[:CAPITAL]->(b:City {name: 'Beijing'})",
	// Malformed: the panic-hunting corpus.
	"CREATE (broken",
	"CREATE (a:X {name: )",
	"CREATE (a)-[:]->(b)",
	"CREATE (a)-[:R]->",
	"CREATE (a {name: 'unterminated)",
	"CREATE (a:X {name: 'q' ",
	"CREATE ()",
	"CREATE (a)->(b)",
	"CREATE (a)-[:R]-(b)",
	"MATCH RETURN",
	"MATCH (a WHERE",
	"((((((((((",
	"CREATE " + strings.Repeat("(a)-[:R]->", 50) + "(b)",
	"CREATE (a:\u00e9 {name: '\u4e2d\u56fd'})",
	"\xff\xfe\x00",
	"CREATE (a:X {n: 1.5e})",
	"CREATE (a:X {n: -})",
	"-- comment\nCREATE (a:X {name: 'x'})",
	"create (lower:case {name: 'ok'})",
}

// FuzzParse: arbitrary input must either parse or return an error — the
// parser may never panic, hang, or return (nil, nil).
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := parse(src)
		if err == nil && s == nil {
			t.Fatalf("parse(%q) returned nil script with nil error", src)
		}
	})
}

// FuzzLex: the lexer underneath the parser has the same contract.
func FuzzLex(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex(src)
		if err != nil {
			return
		}
		// Successful lexes must not fabricate input: the total token text
		// (string literals are unescaped, so compare loosely) can never
		// exceed the source length plus the escapes it may expand.
		var total int
		for _, tok := range toks {
			total += len(tok.text)
		}
		if utf8.ValidString(src) && total > 2*len(src)+2 {
			t.Fatalf("lex(%q) produced %d bytes of token text", src, total)
		}
	})
}

// FuzzDecode: the full pseudo-graph decode path (parse, execute, flatten)
// must error on malformed CREATE scripts, never panic, and never emit a
// triple with an empty field.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Decode(src)
		if err != nil {
			return
		}
		if g == nil {
			t.Fatalf("Decode(%q) returned nil graph with nil error", src)
		}
		for _, tr := range g.Triples {
			if tr.Subject == "" || tr.Relation == "" {
				t.Fatalf("Decode(%q) emitted a degenerate triple %+v", src, tr)
			}
		}
	})
}

// TestFuzzSeedsMalformedError pins the corpus intent outside fuzz mode:
// every malformed seed, each MATCH seed among them, errors (or yields zero
// triples) rather than producing a bogus graph.
func TestFuzzSeedsMalformedError(t *testing.T) {
	malformed := []string{
		"CREATE (broken",
		"CREATE (a:X {name: )",
		"CREATE (a)-[:R]->",
		"CREATE (a {name: 'unterminated)",
	}
	for _, src := range fuzzSeeds {
		if strings.HasPrefix(src, "MATCH") {
			malformed = append(malformed, src)
		}
	}
	for _, src := range malformed {
		if g, err := Decode(src); err == nil && g.Len() > 0 {
			t.Errorf("Decode(%q) = %d triples, want error", src, g.Len())
		}
	}
}
