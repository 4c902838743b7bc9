package cypher

// Script is a parsed Cypher program: a sequence of CREATE statements
// (MERGE parses as CREATE).
type Script struct {
	Statements []*CreateStmt
}

// CreateStmt is CREATE pattern[, pattern...].
type CreateStmt struct {
	Patterns []Pattern
}

// Pattern is a linear node-relationship chain:
// (a)-[:T1]->(b)<-[:T2]-(c) ... . Nodes has len(Rels)+1 entries.
type Pattern struct {
	Nodes []NodePattern
	Rels  []RelPattern
}

// NodePattern is (var:Label {props}). All parts optional per Cypher.
type NodePattern struct {
	Var    string
	Labels []string
	Props  []Property
}

// RelDirection is the arrow orientation of a relationship pattern.
type RelDirection int

const (
	// DirRight is -[:T]-> .
	DirRight RelDirection = iota
	// DirLeft is <-[:T]- .
	DirLeft
	// DirNone is -[:T]- (undirected; executor treats as right).
	DirNone
)

// RelPattern is -[var:TYPE {props}]-> with a direction.
type RelPattern struct {
	Var   string
	Type  string
	Props []Property
	Dir   RelDirection
}

// LiteralKind distinguishes property literal types.
type LiteralKind int

const (
	LitString LiteralKind = iota
	LitInt
	LitFloat
	LitBool
)

// Literal is a property value literal.
type Literal struct {
	Kind LiteralKind
	Str  string
	Int  int64
	Flt  float64
	Bool bool
}

// Property is one key: value pair in a property map.
type Property struct {
	Key   string
	Value Literal
}
