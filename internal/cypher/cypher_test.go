package cypher

import (
	"errors"
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("CREATE (a:Lake {name: 'Lake Superior', area: 82000})")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokenKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []TokenKind{
		TokIdent, TokLParen, TokIdent, TokColon, TokIdent, TokLBrace,
		TokIdent, TokColon, TokString, TokComma, TokIdent, TokColon,
		TokNumber, TokRBrace, TokRParen, TokEOF,
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
	toks, err := Lex("// a comment line\nCREATE (a:X)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIdent || toks[0].Text != "CREATE" {
		t.Errorf("comment not skipped: %v", toks[0])
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex(`CREATE (a {name: 'it\'s here', note: "say \"hi\""})`)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	for _, tok := range toks {
		if tok.Kind == TokString {
			strs = append(strs, tok.Text)
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
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("CREATE\n  (a)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("position of '(' = %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestParsePaperExample1(t *testing.T) {
	// Fig. 3 example 1 (lakes with area properties).
	src := `
CREATE (superior:Lake {name: 'Lake Superior', area: 82000})
CREATE (michigan:Lake {name: 'Lake Michigan', area: 58000})
CREATE (huron:Lake {name: 'Lake Huron', area: 23000})
`
	script, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Statements) != 3 {
		t.Fatalf("got %d statements, want 3", len(script.Statements))
	}
	cs := script.Statements[0]
	if len(cs.Patterns) != 1 {
		t.Fatalf("statement 0: %#v", script.Statements[0])
	}
	n := cs.Patterns[0].Nodes[0]
	if n.Var != "superior" || n.Labels[0] != "Lake" || len(n.Props) != 2 {
		t.Errorf("node pattern wrong: %+v", n)
	}
	if n.Props[1].Key != "area" || n.Props[1].Value.Int != 82000 {
		t.Errorf("area property wrong: %+v", n.Props[1])
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
	script, err := Parse("CREATE (a:X {name:'a'}), (b:Y {name:'b'}), (a)-[:R]->(b)")
	if err != nil {
		t.Fatal(err)
	}
	cs := script.Statements[0]
	if len(cs.Patterns) != 3 {
		t.Errorf("got %d patterns, want 3", len(cs.Patterns))
	}
}

func TestParseMultiHopChain(t *testing.T) {
	script, err := Parse("CREATE (a {name:'a'})-[:R1]->(b {name:'b'})-[:R2]->(c {name:'c'})")
	if err != nil {
		t.Fatal(err)
	}
	pat := script.Statements[0].Patterns[0]
	if len(pat.Nodes) != 3 || len(pat.Rels) != 2 {
		t.Errorf("chain shape: %d nodes %d rels", len(pat.Nodes), len(pat.Rels))
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
		_, err := Parse(src)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q) error = %v, want a *ParseError", src, err)
		}
	}
}

func TestExecutorUnboundVariable(t *testing.T) {
	script, err := Parse("CREATE (a)-[:R]->(b)")
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor()
	if err := ex.Run(script); err == nil {
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
	script, err := Parse("CREATE (a {name:'a'})-[r]->(b {name:'b'})")
	if err != nil {
		t.Fatal(err)
	}
	if err := NewExecutor().Run(script); err == nil {
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
	_, err := Parse("CREATE (a:X {name: 'a'})\nCREATE (b:")
	if err == nil {
		t.Fatal("expected parse error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error lacks line info: %v", err)
	}
}
