package cypher

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("CREATE (a:Lake {name: 'Lake Superior', area: 82000})")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]tokenKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.kind
	}
	want := []tokenKind{
		tokIdent, tokLParen, tokIdent, tokColon, tokIdent, tokLBrace,
		tokIdent, tokColon, tokString, tokComma, tokIdent, tokColon,
		tokNumber, tokRBrace, tokRParen, tokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lex("// a comment line\nCREATE (a:X)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokIdent || toks[0].text != "CREATE" {
		t.Errorf("comment not skipped: %v", toks[0])
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := lex(`CREATE (a {name: 'it\'s here', note: "say \"hi\""})`)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	for _, tok := range toks {
		if tok.kind == tokString {
			strs = append(strs, tok.text)
		}
	}
	if len(strs) != 2 || strs[0] != "it's here" || strs[1] != `say "hi"` {
		t.Errorf("escapes wrong: %q", strs)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{
		"CREATE (a {name: 'unterminated",
		"CREATE (a:`backtick",
	} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) should fail", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lex("CREATE\n  (a)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].line != 2 || toks[1].col != 3 {
		t.Errorf("position of '(' = %d:%d, want 2:3", toks[1].line, toks[1].col)
	}
}

func TestParsePaperExample1(t *testing.T) {
	// Fig. 3 example 1 (lakes with area properties).
	src := `
CREATE (superior:Lake {name: 'Lake Superior', area: 82000})
CREATE (michigan:Lake {name: 'Lake Michigan', area: 58000})
CREATE (huron:Lake {name: 'Lake Huron', area: 23000})
`
	s, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 {
		t.Fatalf("got %d statements, want 3", len(s))
	}
	if len(s[0]) != 1 {
		t.Fatalf("statement 0: %#v", s[0])
	}
	n := s[0][0].nodes[0]
	if n.variable != "superior" || n.labels[0] != "Lake" || len(n.props) != 2 {
		t.Errorf("node pattern wrong: %+v", n)
	}
	if n.props[1] != (property{"area", value{"82000", false}}) {
		t.Errorf("area property wrong: %+v", n.props[1])
	}
}

func TestParsePaperExample2(t *testing.T) {
	// Fig. 3 example 2 (mountain ranges covering countries), including
	// variable reuse across statements.
	src := `
CREATE (andes:MountainRange {name: "Andes"})
CREATE (himalayas:MountainRange {name: "Himalayas"})
CREATE (andes)-[:COVERS]->(peru:Country {name: "Peru"})
CREATE (himalayas)-[:COVERS]->(india:Country {name: "India"})
CREATE (andes)-[:KNOWN_FOR]->(climbing:Concept {name: "Mountain Climbing"})
CREATE (himalayas)-[:KNOWN_FOR]->(climbing)
`
	g, err := Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	wantRels := map[string]bool{
		"<Andes> <covers> <Peru>":                     true,
		"<Himalayas> <covers> <India>":                true,
		"<Andes> <known for> <Mountain Climbing>":     true,
		"<Himalayas> <known for> <Mountain Climbing>": true,
	}
	found := 0
	for _, tr := range g.Triples {
		if wantRels[tr.String()] {
			found++
		}
	}
	if found != len(wantRels) {
		t.Errorf("decoded triples missing expected relationships:\n%s", g)
	}
}

func TestParseMultiPatternCreate(t *testing.T) {
	s, err := parse("CREATE (a:X {name:'a'}), (b:Y {name:'b'}), (a)-[:R]->(b)")
	if err != nil {
		t.Fatal(err)
	}
	if len(s[0]) != 3 {
		t.Errorf("got %d patterns, want 3", len(s[0]))
	}
}

func TestParseMultiHopChain(t *testing.T) {
	s, err := parse("CREATE (a {name:'a'})-[:R1]->(b {name:'b'})-[:R2]->(c {name:'c'})")
	if err != nil {
		t.Fatal(err)
	}
	pat := s[0][0]
	if len(pat.nodes) != 3 || len(pat.rels) != 2 {
		t.Errorf("chain shape: %d nodes %d rels", len(pat.nodes), len(pat.rels))
	}
}

func TestParseLeftArrow(t *testing.T) {
	g, err := Decode("CREATE (a {name:'A'})<-[:MADE_BY]-(b {name:'B'})")
	if err != nil {
		t.Fatal(err)
	}
	want := "<B> <made by> <A>"
	found := false
	for _, tr := range g.Triples {
		if tr.String() == want {
			found = true
		}
	}
	if !found {
		t.Errorf("left arrow direction wrong:\n%s", g)
	}
}

func TestParseMergeTreatedAsCreate(t *testing.T) {
	g, err := Decode("MERGE (a:City {name:'Paris', population: 2000000})")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 || g.Triples[0].Relation != "population" {
		t.Errorf("MERGE decode: %s", g)
	}
}

// TestParseErrors: each malformed script is a ParseError. A MATCH is one
// too, alone or after valid CREATEs, also when it uses characters only
// queries use ('.', '='): the grammar is CREATE and MERGE.
func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",                      // empty
		"DELETE (a)",            // unsupported statement
		"CREATE (a",             // unterminated node
		"CREATE (a)-[:R](b)",    // missing arrow close
		"CREATE (a)-[:R]>(b)",   // broken arrow
		"CREATE (a)-[:R]->",     // dangling rel
		"CREATE (a {name 'x'})", // missing colon
		"MATCH (a) RETURN a",
		"MATCH (c:Country) WHERE c.name = 'China' RETURN c.name",
		"CREATE (c:Country {name: 'China', population: 1400})\nMATCH (c) RETURN c.name",
	} {
		_, err := parse(src)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("parse(%q) error = %v, want a *ParseError", src, err)
		}
	}
}

func TestExecutorUnboundVariable(t *testing.T) {
	s, err := parse("CREATE (a)-[:R]->(b)")
	if err != nil {
		t.Fatal(err)
	}
	if err := newExecutor().run(s); err == nil {
		t.Error("unbound endpoint variables should fail execution")
	}
}

func TestExecutorNameBasedReuse(t *testing.T) {
	// Two statements introduce the same display name: the executor must
	// merge rather than duplicate, so decoded triples stay compact.
	src := `
CREATE (x:Person {name: 'Ada'})
CREATE (y:Person {name: 'Ada', born: 1815})
`
	g, err := Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 || g.Triples[0].String() != "<Ada> <born> <1815>" {
		t.Errorf("name-based merge failed:\n%s", g)
	}
}

func TestExecutorRelWithoutType(t *testing.T) {
	s, err := parse("CREATE (a {name:'a'})-[r]->(b {name:'b'})")
	if err != nil {
		t.Fatal(err)
	}
	if err := newExecutor().run(s); err == nil {
		t.Error("typeless relationship should fail execution")
	}
}

func TestDecodeLiteralProperties(t *testing.T) {
	g, err := Decode("CREATE (c:City {name: 'Oslo', population: 700000, coastal: true, rating: 4.5})")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"population": "700000",
		"coastal":    "true",
		"rating":     "4.5",
	}
	if g.Len() != len(want) {
		t.Fatalf("decoded %d triples, want %d:\n%s", g.Len(), len(want), g)
	}
	for _, tr := range g.Triples {
		if tr.Subject != "Oslo" {
			t.Errorf("subject = %q", tr.Subject)
		}
		if want[tr.Relation] != tr.Object {
			t.Errorf("%s = %q, want %q", tr.Relation, tr.Object, want[tr.Relation])
		}
	}
}

func TestValidate(t *testing.T) {
	if !Validate("CREATE (a:X {name: 'a', v: 1})") {
		t.Error("valid script rejected")
	}
	if Validate("CREATE (a:X {name: 'a', v: 1}") { // missing paren
		t.Error("invalid script accepted")
	}
	if Validate("CREATE (a)") { // executes to zero triples
		t.Error("empty-yield script should not validate")
	}
}

func TestDecodeCaseHumanisation(t *testing.T) {
	g, err := Decode("CREATE (a {name:'A'})-[:PLACE_OF_BIRTH]->(b {name:'B'})")
	if err != nil {
		t.Fatal(err)
	}
	if g.Triples[0].Relation != "place of birth" {
		t.Errorf("relation humanisation: %q", g.Triples[0].Relation)
	}
}

func TestQuotedPropertyKeys(t *testing.T) {
	g, err := Decode(`CREATE (a {name:'A', 'date of birth': '1927-09-04'})`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range g.Triples {
		if tr.Relation == "date of birth" && tr.Object == "1927-09-04" {
			found = true
		}
	}
	if !found {
		t.Errorf("quoted key lost:\n%s", g)
	}
}

func TestNegativeAndUnderscoreNumbers(t *testing.T) {
	g, err := Decode("CREATE (a {name:'A', delta: -42, big: 1_000_000})")
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]string{}
	for _, tr := range g.Triples {
		vals[tr.Relation] = tr.Object
	}
	if vals["delta"] != "-42" || vals["big"] != "1000000" {
		t.Errorf("numeric literals: %v", vals)
	}
}

func TestFencedDecodeViaLines(t *testing.T) {
	// The executor must cope with scripts whose statements are separated
	// by semicolons as well as newlines.
	g, err := Decode("CREATE (a:X {name:'a', v: 1}); CREATE (b:X {name:'b', v: 2})")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Errorf("got %d triples, want 2:\n%s", g.Len(), g)
	}
}

func TestErrorMessagesCarryPosition(t *testing.T) {
	_, err := parse("CREATE (a:X {name: 'a'})\nCREATE (b:")
	if err == nil {
		t.Fatal("expected parse error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error lacks line info: %v", err)
	}
}

// TestDecodeRules pins the executor's rules that the paper-scale pseudo-
// graph golden never reaches (its completions hold no MERGE, no null and
// no repeated key): each script decodes to exactly these triples, in this
// order, or fails with exactly this error.
func TestDecodeRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		want []string
		err  string
	}{
		// Literals render once, with strconv's shortest forms.
		{"literal_rendering", "CREATE (a {name: 'A', i: -42, f: 2.50, e: 1.0, big: 1_000, t: TRUE, s: bare, q: \"it's\"})",
			[]string{"<A> <big> <1000>", "<A> <e> <1>", "<A> <f> <2.5>", "<A> <i> <-42>", "<A> <q> <it's>", "<A> <s> <bare>", "<A> <t> <true>"}, ""},

		// The name rule: name of any kind, rendered...
		{"name_of_any_kind", "CREATE (a:X {name: 5, v: 'w'}), (b:X {name: 2.50, v: 1}), (c {name: false, v: 0})",
			[]string{"<5> <v> <w>", "<2.5> <v> <1>", "<false> <v> <0>"}, ""},
		// ...else the string property with the smallest key...
		{"name_falls_back_to_smallest_string_key", "CREATE (a:X {z: 'zz', a: 'aa', n: 1})",
			[]string{"<aa> <a> <aa>", "<aa> <n> <1>", "<aa> <z> <zz>"}, ""},
		{"name_fallback_skips_non_strings", "CREATE (a:X {b: 'bee', a: 1.5, c: true})",
			[]string{"<bee> <a> <1.5>", "<bee> <b> <bee>", "<bee> <c> <true>"}, ""},
		// ...where null is a string, so this node's name is "".
		{"null_is_an_empty_string", "CREATE (a:X {age: null, title: 'X'})-[:R]->(b {name: 'B'})", nil, ""},
		// ...else the first label, also one a later merge adds.
		{"first_label_names_a_nameless_node", "CREATE (a:Lake:Water {area: 5})",
			[]string{"<Lake> <area> <5>"}, ""},
		{"label_added_by_merge", "CREATE (a {area: 5})\nCREATE (a:Lake:Water {depth: 3})",
			[]string{"<Lake> <area> <5>", "<Lake> <depth> <3>"}, ""},
		{"nameless_endpoint_skipped", "CREATE (a {n: 1})-[:R]->(b {name: 'B'})", nil, ""},

		// Repeated keys: the last value wins within a created pattern; a
		// merge never overwrites, and its first new value wins.
		{"repeated_key_last_wins_on_create", "CREATE (a:X {name: 'A', v: 1, v: 2})",
			[]string{"<A> <v> <2>"}, ""},
		{"merge_by_variable_first_new_value_wins", "CREATE (a:X {name: 'A', v: 1})\nCREATE (a {v: 9, w: 2, w: 3})",
			[]string{"<A> <v> <1>", "<A> <w> <2>"}, ""},
		{"merge_by_name", "CREATE (c:City {name: 'Paris'})\nMERGE (d:Town {name: 'Paris', population: 2, population: 3})\nCREATE (d)-[:IN]->(f {name: 'France'})",
			[]string{"<Paris> <population> <2>", "<Paris> <in> <France>"}, ""},

		// byName holds the name a node had at its creation.
		{"bare_label_binds_a_label_named_node", "CREATE (:Lake {area: 5})\nCREATE (Lake)-[:FEEDS]->(r:River {name: 'R'})",
			[]string{"<Lake> <area> <5>", "<Lake> <feeds> <R>"}, ""},
		{"byname_keeps_the_creation_name", "CREATE (a:Lake {area: 5})\nCREATE (a {name: 'Superior'})\nCREATE (Lake)-[:IN]->(c:Country {name: 'US'})",
			[]string{"<Superior> <area> <5>", "<Superior> <in> <US>"}, ""},
		{"byname_skips_a_node_named_later", "CREATE (a {area: 5})\nCREATE (a:Lake)\nCREATE (Lake)-[:IN]->(c {name: 'US'})",
			nil, `cypher: exec error: unbound variable "Lake"`},

		// Relationships: properties dropped, left arrows swapped,
		// undirected read as right, a type required.
		{"properties_then_relationships", "CREATE (w:Waterway {name: 'Keweenaw'})<-[:CONNECTS_WITH]-(l:Lake {name: 'Lake Superior', area: 82000})",
			[]string{"<Lake Superior> <area> <82000>", "<Lake Superior> <connects with> <Keweenaw>"}, ""},
		{"relationship_properties_ignored", "CREATE (a {name: 'A'})-[r:R {since: 1990, note: 'x'}]->(b {name: 'B'})",
			[]string{"<A> <r> <B>"}, ""},
		{"undirected_reads_right", "CREATE (a {name: 'A'})-[:R]-(b {name: 'B'})",
			[]string{"<A> <r> <B>"}, ""},
		{"typeless_relationship", "CREATE (a {name: 'a'})-[r]->(b {name: 'b'})",
			nil, "cypher: exec error: relationship without a type"},
		{"unbound_variable", "CREATE (a)-[:R]->(b)", nil, `cypher: exec error: unbound variable "a"`},
		{"anonymous_empty_node", "CREATE ()", nil, "cypher: exec error: anonymous node pattern with no content"},
		{"empty_property_key", "CREATE (a {name: 'A', '': 'x'})", nil, "cypher: parse error at 1:23: empty property key"},
		{"empty_backtick_key", "CREATE (a {name: 'A', ``: 'x'})", nil, "cypher: parse error at 1:23: empty property key"},

		// Identifiers are read by rune: a non-ASCII letter is a letter.
		{"utf8_variable", "CREATE (josé:Person {name: 'José'})\nCREATE (josé)-[:LIVES_IN]->(c {name: 'Zürich'})",
			[]string{"<José> <lives in> <Zürich>"}, ""},
		{"utf8_label", "CREATE (a:Café {area: 5})", []string{"<Café> <area> <5>"}, ""},
		{"utf8_bare_value", "CREATE (a {name: 'A', v: Zürich})", []string{"<A> <v> <Zürich>"}, ""},
		// A character outside the grammar is quoted whole, a byte that
		// starts no rune as that byte.
		{"utf8_illegal_character", "CREATE (a {name: 'A'})→(b {name: 'B'})",
			nil, `cypher: parse error at 1:23: expected CREATE or MERGE, found "→"`},
		{"invalid_utf8_byte", "CREATE (a {name: 'A'})\xff(b {name: 'B'})",
			nil, `cypher: parse error at 1:23: expected CREATE or MERGE, found "\xff"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Decode(tc.src)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("Decode error = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, tr := range g.Triples {
				got = append(got, tr.String())
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("Decode =\n%q\nwant\n%q", got, tc.want)
			}
		})
	}
}
