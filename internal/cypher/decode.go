package cypher

import (
	"repro/internal/kg"
)

// Decode parses and executes a Cypher script and returns the triples it
// builds as a pseudo-graph (Gp in the paper). It is the complete "step 2 →
// decode" path of Pseudo-Graph Generation. Any failure is returned, as a
// *LexError, *ParseError or *ExecError, so callers can measure structural
// validity (the 98 % figure in §III-A).
func Decode(src string) (*kg.Graph, error) {
	s, err := parse(src)
	if err != nil {
		return nil, err
	}
	ex := newExecutor()
	if err := ex.run(s); err != nil {
		return nil, err
	}
	return ex.triples(), nil
}

// Validate reports whether the script is structurally valid: it parses,
// executes, and yields at least one triple. This is the predicate the
// Fig. 2 experiment (Cypher route ≈ 98 % vs direct generation ≈ 75 %)
// evaluates over pseudo-graph generations.
func Validate(src string) bool {
	g, err := Decode(src)
	return err == nil && g.Len() > 0
}
