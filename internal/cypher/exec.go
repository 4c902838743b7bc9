package cypher

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/kg"
)

// ExecError reports a runtime execution failure (e.g. relationship endpoint
// variable never bound).
type ExecError struct {
	Msg string
}

// Error implements error.
func (e *ExecError) Error() string { return "cypher: exec error: " + e.Msg }

// node is what the triples read of a created node: its properties and its
// first label, the last resort for its name.
type node struct {
	props    map[string]value
	label    string
	labelled bool // label is set, even when it is the empty `` name
}

// name returns the node's display name, the surface of its triples: the
// "name" property if present, otherwise the string property with the
// smallest key, otherwise its first label.
func (n *node) name() string {
	if v, ok := n.props["name"]; ok {
		return v.text
	}
	best, found := "", false
	for k, v := range n.props {
		if v.str && (!found || k < best) {
			best, found = k, true
		}
	}
	if found {
		return n.props[best].text
	}
	return n.label
}

// rel is a created relationship: endpoints by node index, and its type.
type rel struct {
	from, to int
	relType  string
}

// executor runs a parsed script, maintaining the variable bindings that
// let later CREATE statements reference nodes created earlier — the
// pattern the paper's prompt examples rely on ("CREATE (andes:MountainRange
// ...)" then "CREATE (andes)-[:COVERS]->...").
type executor struct {
	nodes []*node
	rels  []rel
	// vars maps Cypher variable name -> node index.
	vars map[string]int
	// byName maps a node's display name at creation -> node index, letting
	// a bare (x {name: 'X'}) pattern reuse an existing node instead of
	// duplicating it.
	byName map[string]int
}

func newExecutor() *executor {
	return &executor{vars: make(map[string]int), byName: make(map[string]int)}
}

// run executes every statement in the script.
func (e *executor) run(s script) error {
	for _, st := range s {
		for _, pat := range st {
			ids := make([]int, len(pat.nodes))
			for i, np := range pat.nodes {
				id, err := e.resolveNode(np)
				if err != nil {
					return err
				}
				ids[i] = id
			}
			for i, rp := range pat.rels {
				if rp.relType == "" {
					return &ExecError{Msg: "relationship without a type"}
				}
				from, to := ids[i], ids[i+1]
				if rp.left {
					from, to = to, from
				}
				e.rels = append(e.rels, rel{from, to, rp.relType})
			}
		}
	}
	return nil
}

// resolveNode returns the node index for a node pattern, creating the node
// if the pattern introduces one. Resolution rules, in order:
//
//  1. A bare variable reference (no labels, no props) must already be
//     bound; otherwise, if a prior node's name equals the variable text, it
//     binds to that (LLMs sometimes reuse a node's name as a variable).
//  2. A pattern with content creates a node — unless a node with the same
//     display name already exists, in which case properties are merged into
//     it (MERGE-like behaviour that keeps pseudo-graphs compact).
func (e *executor) resolveNode(np nodePattern) (int, error) {
	bare := len(np.labels) == 0 && len(np.props) == 0
	if np.variable != "" {
		if id, ok := e.vars[np.variable]; ok {
			if !bare {
				e.merge(id, np)
			}
			return id, nil
		}
		if bare {
			if id, ok := e.byName[np.variable]; ok {
				e.vars[np.variable] = id
				return id, nil
			}
			return 0, &ExecError{Msg: fmt.Sprintf("unbound variable %q", np.variable)}
		}
	} else if bare {
		return 0, &ExecError{Msg: "anonymous node pattern with no content"}
	}
	// Within one pattern a repeated key keeps its last value.
	props := make(map[string]value, len(np.props))
	for _, p := range np.props {
		props[p.key] = p.value
	}
	if v, ok := props["name"]; ok {
		if id, exists := e.byName[v.text]; exists {
			e.merge(id, np)
			if np.variable != "" {
				e.vars[np.variable] = id
			}
			return id, nil
		}
	}
	n := &node{props: props}
	if len(np.labels) > 0 {
		n.label, n.labelled = np.labels[0], true
	}
	id := len(e.nodes)
	e.nodes = append(e.nodes, n)
	if np.variable != "" {
		e.vars[np.variable] = id
	}
	if name := n.name(); name != "" {
		if _, exists := e.byName[name]; !exists {
			e.byName[name] = id
		}
	}
	return id, nil
}

// merge adds the pattern's labels and properties to an existing node
// without overwriting established values: a key's first new value wins.
func (e *executor) merge(id int, np nodePattern) {
	n := e.nodes[id]
	if !n.labelled && len(np.labels) > 0 {
		n.label, n.labelled = np.labels[0], true
	}
	for _, p := range np.props {
		if _, exists := n.props[p.key]; !exists {
			n.props[p.key] = p.value
		}
	}
}

// triples flattens what the script built into triples, the paper's step of
// "decoding the results into pseudo-graph Gp". Two families are produced,
// in deterministic order:
//
//   - one triple per non-name node property, in node order and by sorted
//     key: <name> <humanised key> <value>;
//   - then one triple per relationship: <fromName> <humanised type> <toName>.
//
// A node without a name contributes no triple, nor does a relationship
// with a nameless endpoint.
func (e *executor) triples() *kg.Graph {
	g := &kg.Graph{}
	for _, n := range e.nodes {
		name := n.name()
		if name == "" {
			continue
		}
		keys := make([]string, 0, len(n.props))
		for k := range n.props {
			if k != "name" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			g.Add(kg.Triple{Subject: name, Relation: humanize(k), Object: n.props[k].text})
		}
	}
	for _, r := range e.rels {
		from, to := e.nodes[r.from].name(), e.nodes[r.to].name()
		if from != "" && to != "" {
			g.Add(kg.Triple{Subject: from, Relation: humanize(r.relType), Object: to})
		}
	}
	return g
}

// humanize converts SHOUTY_SNAKE relationship types and snake_case
// property keys to a lower-case spaced surface form: "COMES_WITH" -> "comes
// with". The paper's pseudo-graphs use Cypher conventions while KG surfaces
// are natural-language-like; humanising when decoding keeps pseudo-triples
// in the same lexical space as the KG so the semantic query can match them.
func humanize(s string) string {
	return strings.ToLower(strings.ReplaceAll(s, "_", " "))
}
