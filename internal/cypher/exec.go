package cypher

import (
	"fmt"

	"repro/internal/propgraph"
)

// ExecError reports a runtime execution failure (e.g. relationship endpoint
// variable never bound).
type ExecError struct {
	Msg string
}

// Error implements error.
func (e *ExecError) Error() string { return "cypher: exec error: " + e.Msg }

// Executor runs parsed scripts against a property graph, maintaining the
// variable bindings that let later CREATE statements reference nodes
// created earlier — the pattern the paper's prompt examples rely on
// ("CREATE (andes:MountainRange ...)" then "CREATE (andes)-[:COVERS]->...").
type Executor struct {
	g *propgraph.Graph
	// vars maps Cypher variable name -> node ID.
	vars map[string]int
	// byName maps node display name -> node ID, letting a bare (x {name:
	// 'X'}) pattern reuse an existing node instead of duplicating it.
	byName map[string]int
}

// NewExecutor returns an executor over a fresh property graph.
func NewExecutor() *Executor {
	return &Executor{
		g:      propgraph.New(),
		vars:   make(map[string]int),
		byName: make(map[string]int),
	}
}

// Graph returns the property graph built so far.
func (e *Executor) Graph() *propgraph.Graph { return e.g }

// Run executes every statement in the script.
func (e *Executor) Run(s *Script) error {
	for _, st := range s.Statements {
		if err := e.runCreate(st); err != nil {
			return err
		}
	}
	return nil
}

func (e *Executor) runCreate(st *CreateStmt) error {
	for _, pat := range st.Patterns {
		ids := make([]int, len(pat.Nodes))
		for i, np := range pat.Nodes {
			id, err := e.resolveNode(np)
			if err != nil {
				return err
			}
			ids[i] = id
		}
		for i, rp := range pat.Rels {
			from, to := ids[i], ids[i+1]
			if rp.Dir == DirLeft {
				from, to = to, from
			}
			relType := rp.Type
			if relType == "" {
				return &ExecError{Msg: "relationship without a type"}
			}
			props := literalProps(rp.Props)
			if _, err := e.g.CreateRel(from, to, relType, props); err != nil {
				return &ExecError{Msg: err.Error()}
			}
		}
	}
	return nil
}

// resolveNode returns the node ID for a node pattern, creating the node if
// the pattern introduces one. Resolution rules, in order:
//
//  1. A bare variable reference (no labels, no props) must already be
//     bound; otherwise, if a prior node's name equals the variable text, it
//     binds to that (LLMs sometimes reuse a node's name as a variable).
//  2. A pattern with content creates a node — unless a node with the same
//     display name already exists, in which case properties are merged into
//     it (MERGE-like behaviour that keeps pseudo-graphs compact).
func (e *Executor) resolveNode(np NodePattern) (int, error) {
	bare := len(np.Labels) == 0 && len(np.Props) == 0
	if np.Var != "" {
		if id, ok := e.vars[np.Var]; ok {
			if !bare {
				e.mergeProps(id, np)
			}
			return id, nil
		}
		if bare {
			if id, ok := e.byName[np.Var]; ok {
				e.vars[np.Var] = id
				return id, nil
			}
			return 0, &ExecError{Msg: fmt.Sprintf("unbound variable %q", np.Var)}
		}
	} else if bare {
		return 0, &ExecError{Msg: "anonymous node pattern with no content"}
	}
	props := literalProps(np.Props)
	// Name-based reuse.
	if nameV, ok := props["name"]; ok {
		if id, exists := e.byName[nameV.String()]; exists {
			e.mergeProps(id, np)
			if np.Var != "" {
				e.vars[np.Var] = id
			}
			return id, nil
		}
	}
	n := e.g.CreateNode(np.Labels, props)
	if np.Var != "" {
		e.vars[np.Var] = n.ID
	}
	if name := n.Name(); name != "" {
		if _, exists := e.byName[name]; !exists {
			e.byName[name] = n.ID
		}
	}
	return n.ID, nil
}

// mergeProps adds the pattern's labels/properties to an existing node
// without overwriting established values.
func (e *Executor) mergeProps(id int, np NodePattern) {
	n, ok := e.g.Node(id)
	if !ok {
		return
	}
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			n.Labels = append(n.Labels, l)
		}
	}
	for _, p := range np.Props {
		if _, exists := n.Props[p.Key]; !exists {
			n.Props[p.Key] = literalValue(p.Value)
		}
	}
}

func literalProps(props []Property) map[string]propgraph.Value {
	out := make(map[string]propgraph.Value, len(props))
	for _, p := range props {
		out[p.Key] = literalValue(p.Value)
	}
	return out
}

func literalValue(l Literal) propgraph.Value {
	switch l.Kind {
	case LitInt:
		return propgraph.IntValue(l.Int)
	case LitFloat:
		return propgraph.FloatValue(l.Flt)
	case LitBool:
		return propgraph.BoolValue(l.Bool)
	default:
		return propgraph.StringValue(l.Str)
	}
}
