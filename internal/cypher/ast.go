package cypher

// script is a parsed Cypher program: one entry per CREATE statement
// (MERGE parses as CREATE), each its comma-separated patterns.
type script [][]pattern

// pattern is a linear node-relationship chain:
// (a)-[:T1]->(b)<-[:T2]-(c) ... . nodes has len(rels)+1 entries.
type pattern struct {
	nodes []nodePattern
	rels  []relPattern
}

// nodePattern is (var:Label {props}). All parts optional per Cypher.
type nodePattern struct {
	variable string
	labels   []string
	props    []property
}

// relPattern is -[var:TYPE {props}]-> in one of its three directions.
// Only the type and whether the arrow points left reach the triples: the
// variable and properties are parsed and dropped, and an undirected
// -[:T]- reads as pointing right.
type relPattern struct {
	relType string
	left    bool
}

// property is one key: value pair of a property map, its literal
// rendered once as the text the triples carry.
type property struct {
	key string
	value
}

// value is a rendered property literal. str marks a string literal (a
// quoted or bare word, or null as ""): only those can stand in for a
// node's missing name.
type value struct {
	text string
	str  bool
}
