// Package propgraph implements the in-memory property graph that stands in
// for Neo4j in the Pseudo-Graph Generation step. LLM-emitted
// Cypher CREATE statements are executed against a Graph by internal/cypher,
// and the resulting nodes/relationships are decoded back into triples.
//
// The model follows Neo4j's: nodes carry one or more labels and a property
// map; relationships are directed, typed edges with optional properties.
// Node identity during a Cypher script's execution is handled by the cypher
// executor's variable bindings; this package only stores the materialised
// graph. Nothing queries a Graph: one script builds it and DecodeTriples
// flattens it.
package propgraph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Value is a property value: string, int64, float64 or bool.
type Value struct {
	kind byte // 's', 'i', 'f', 'b'
	s    string
	i    int64
	f    float64
	b    bool
}

// StringValue returns a string-typed property value.
func StringValue(s string) Value { return Value{kind: 's', s: s} }

// IntValue returns an integer-typed property value.
func IntValue(i int64) Value { return Value{kind: 'i', i: i} }

// FloatValue returns a float-typed property value.
func FloatValue(f float64) Value { return Value{kind: 'f', f: f} }

// BoolValue returns a boolean property value.
func BoolValue(b bool) Value { return Value{kind: 'b', b: b} }

// String renders the value in a human-readable form (used when decoding
// node properties into triple objects).
func (v Value) String() string {
	switch v.kind {
	case 's':
		return v.s
	case 'i':
		return strconv.FormatInt(v.i, 10)
	case 'f':
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case 'b':
		return strconv.FormatBool(v.b)
	default:
		return ""
	}
}

// AsString returns the string payload and whether the value is a string.
func (v Value) AsString() (string, bool) { return v.s, v.kind == 's' }

// Node is a labelled, property-carrying graph node.
type Node struct {
	ID     int
	Labels []string
	Props  map[string]Value
}

// Label returns the node's first label, or "" if it has none.
func (n *Node) Label() string {
	if len(n.Labels) == 0 {
		return ""
	}
	return n.Labels[0]
}

// HasLabel reports whether the node carries the given label.
func (n *Node) HasLabel(label string) bool {
	for _, l := range n.Labels {
		if l == label {
			return true
		}
	}
	return false
}

// Name returns the node's display name: the "name" property if present,
// otherwise any single string property, otherwise its first label.
// Pseudo-graph decoding uses this as the triple subject/object surface.
func (n *Node) Name() string {
	if v, ok := n.Props["name"]; ok {
		return v.String()
	}
	// Deterministic fallback: smallest property key that holds a string.
	keys := make([]string, 0, len(n.Props))
	for k := range n.Props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if s, ok := n.Props[k].AsString(); ok {
			return s
		}
	}
	return n.Label()
}

// Rel is a directed, typed relationship between two nodes.
type Rel struct {
	ID    int
	From  int
	To    int
	Type  string
	Props map[string]Value
}

// Graph is a mutable property graph. The zero value is not usable; call New.
type Graph struct {
	nodes []*Node
	rels  []*Rel
}

// New returns an empty property graph.
func New() *Graph {
	return &Graph{}
}

// CreateNode adds a node with the given labels and properties, returning it.
func (g *Graph) CreateNode(labels []string, props map[string]Value) *Node {
	if props == nil {
		props = map[string]Value{}
	}
	n := &Node{ID: len(g.nodes), Labels: append([]string(nil), labels...), Props: props}
	g.nodes = append(g.nodes, n)
	return n
}

// CreateRel adds a relationship of the given type from one node to another.
// It returns an error if either endpoint is unknown or the type is empty.
func (g *Graph) CreateRel(from, to int, relType string, props map[string]Value) (*Rel, error) {
	if from < 0 || from >= len(g.nodes) {
		return nil, fmt.Errorf("propgraph: unknown from-node %d", from)
	}
	if to < 0 || to >= len(g.nodes) {
		return nil, fmt.Errorf("propgraph: unknown to-node %d", to)
	}
	if relType == "" {
		return nil, fmt.Errorf("propgraph: empty relationship type")
	}
	if props == nil {
		props = map[string]Value{}
	}
	r := &Rel{ID: len(g.rels), From: from, To: to, Type: relType, Props: props}
	g.rels = append(g.rels, r)
	return r, nil
}

// Node returns the node with the given ID.
func (g *Graph) Node(id int) (*Node, bool) {
	if id < 0 || id >= len(g.nodes) {
		return nil, false
	}
	return g.nodes[id], true
}

// relationHumanize converts SHOUTY_SNAKE relationship types and snake_case
// property keys to a lower-case spaced surface form: "COMES_WITH" -> "comes
// with". The paper's pseudo-graphs use Cypher conventions while KG surfaces
// are natural-language-like; humanising when decoding keeps pseudo-triples
// in the same lexical space as the KG so the semantic query can match them.
func relationHumanize(relType string) string {
	return strings.ToLower(strings.ReplaceAll(relType, "_", " "))
}

// Statement is one decoded subject/relation/object triple.
type Statement struct {
	Subject, Relation, Object string
}

// DecodeTriples flattens the property graph into subject/relation/object
// statements, the paper's step of "decoding the results into pseudo-graph
// Gp". Two families are produced, in deterministic order:
//
//   - one triple per non-name node property, in node order:
//     <name> <humanised key> <value>;
//   - then one triple per relationship: <fromName> <humanised type> <toName>.
func (g *Graph) DecodeTriples() []Statement {
	var out []Statement
	for _, n := range g.nodes {
		name := n.Name()
		if name == "" {
			continue
		}
		keys := make([]string, 0, len(n.Props))
		for k := range n.Props {
			if k == "name" {
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, Statement{Subject: name, Relation: relationHumanize(k), Object: n.Props[k].String()})
		}
	}
	for _, r := range g.rels {
		from := g.nodes[r.From].Name()
		to := g.nodes[r.To].Name()
		if from == "" || to == "" {
			continue
		}
		out = append(out, Statement{Subject: from, Relation: relationHumanize(r.Type), Object: to})
	}
	return out
}
