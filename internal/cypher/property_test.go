package cypher

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// genScript builds a random valid Cypher script from a seed: nodes with
// random labels/properties plus relationships among already-bound
// variables. Used to property-test Decode.
func genScript(seed int64) (string, int) {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	nodes := 1 + rng.Intn(5)
	stmts := 0
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(&b, "CREATE (n%d:Label%d {name: 'Entity %d', value: %d})\n",
			i, rng.Intn(3), i, rng.Intn(1000))
		stmts++
	}
	rels := rng.Intn(5)
	for i := 0; i < rels; i++ {
		from, to := rng.Intn(nodes), rng.Intn(nodes)
		fmt.Fprintf(&b, "CREATE (n%d)-[:REL_%d]->(n%d)\n", from, rng.Intn(4), to)
		stmts++
	}
	return b.String(), stmts
}

// TestDecodeCountsProperty: decoding a generated script yields one property
// triple per non-name node property plus one per relationship with named
// endpoints (nodes here always have names).
func TestDecodeCountsProperty(t *testing.T) {
	f := func(seed int64) bool {
		src, _ := genScript(seed)
		nodes := strings.Count(src, "{name:")
		rels := strings.Count(src, "]->")
		g, err := Decode(src)
		if err != nil {
			return false
		}
		// Each node contributes its "value" property; each rel one triple.
		return g.Len() == nodes+rels
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLexNeverPanics: the lexer must return errors, not panic, on
// arbitrary byte soup.
func TestLexNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Lex panicked on %q: %v", src, r)
			}
		}()
		_, _ = lex(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestParseNeverPanics: same for the parser.
func TestParseNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on %q: %v", src, r)
			}
		}()
		_, _ = parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanicsOnCorruptions: every corruption mode the simulated
// LLM can inject must fail cleanly.
func TestDecodeNeverPanicsOnCorruptions(t *testing.T) {
	base := "CREATE (a:X {name: 'Entity A', v: 1})\nCREATE (a)-[:REL]->(b:Y {name: 'Entity B'})"
	corruptions := []string{
		base[:len(base)-1],                                            // truncated
		strings.Replace(base, "]->", "]>", 1),                         // broken arrow
		strings.Replace(base, "'Entity A'", "'Entity A", 1),           // unterminated string
		strings.Replace(base, "(a:X", "(a:X", 1) + "\nCREATE (broken", // dangling
		"",
		"CREATE",
		"<not cypher at all>",
	}
	for _, src := range corruptions {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on %q: %v", src, r)
				}
			}()
			_, _ = Decode(src)
		}()
	}
}
