// Package kg provides the knowledge-graph substrate for PG&AKV: the triple
// model, schema renderers for multiple KG sources (Wikidata- and
// Freebase-flavoured), and an indexed in-memory triple store.
//
// A triple is the atomic unit of knowledge throughout the system, matching
// the paper's definition G = {S, R, O}. Triples carry their textual surface
// form (used for semantic querying), a provenance tag identifying the KG
// source, and an optional ordinal for time-varying facts (the paper's
// "population of China" example, where the gold graph lists values in
// chronological order).
package kg

import (
	"fmt"
	"strings"
)

// Source identifies which knowledge-graph schema a triple is rendered in.
type Source int

const (
	// SourceUnknown is the zero value; triples generated by an LLM
	// (pseudo-triples) have no KG provenance.
	SourceUnknown Source = iota
	// SourceWikidata renders relations as verbose English labels,
	// e.g. <Lake Superior> <area> <82350>.
	SourceWikidata
	// SourceFreebase renders relations as path-style identifiers,
	// e.g. <lake superior> <geography/lake/surface_area> <82350>.
	SourceFreebase
)

// String returns the canonical lower-case name of the source.
func (s Source) String() string {
	switch s {
	case SourceWikidata:
		return "wikidata"
	case SourceFreebase:
		return "freebase"
	default:
		return "unknown"
	}
}

// ParseSource converts a source name to a Source. It accepts the values
// produced by Source.String and is case-insensitive.
func ParseSource(name string) (Source, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "wikidata":
		return SourceWikidata, nil
	case "freebase":
		return SourceFreebase, nil
	case "unknown", "":
		return SourceUnknown, nil
	default:
		return SourceUnknown, fmt.Errorf("kg: unknown source %q", name)
	}
}

// Triple is a single (subject, relation, object) statement.
//
// Subject, Relation and Object are surface strings in the schema of the
// owning source. ID is a stable identifier within a store (0 when the triple
// is free-standing). Ord orders time-varying facts that share (S, R): the
// paper's verification prompt instructs the model to "pick the last one that
// comes up", so stores must preserve ordinal order when listing.
type Triple struct {
	Subject  string
	Relation string
	Object   string
	Source   Source
	Ord      int
	ID       int
}

// NewTriple returns a free-standing triple with unknown provenance.
func NewTriple(s, r, o string) Triple {
	return Triple{Subject: s, Relation: r, Object: o}
}

// String renders the triple in the paper's angle-bracket surface form,
// e.g. "<China> <population> <1443497378>".
func (t Triple) String() string {
	return fmt.Sprintf("<%s> <%s> <%s>", t.Subject, t.Relation, t.Object)
}

// Text returns the flat sentence-like form used for semantic encoding:
// subject, relation and object joined by single spaces.
func (t Triple) Text() string {
	return t.Subject + " " + t.Relation + " " + t.Object
}

// Key returns a canonical comparison key that ignores Source, Ord and ID.
// Two triples with equal keys state the same fact surface.
func (t Triple) Key() string {
	return t.Subject + "\x00" + t.Relation + "\x00" + t.Object
}

// SRKey returns the (subject, relation) key, used to group time-varying
// facts and to match pseudo-triples against ground-truth facts.
func (t Triple) SRKey() string {
	return t.Subject + "\x00" + t.Relation
}

// Equal reports whether two triples state the same fact (Source/Ord/ID are
// ignored; comparison is exact on the surface strings).
func (t Triple) Equal(u Triple) bool {
	return t.Subject == u.Subject && t.Relation == u.Relation && t.Object == u.Object
}

// ParseTriple parses the angle-bracket surface form produced by
// Triple.String. It tolerates surrounding whitespace and requires exactly
// three bracketed fields.
func ParseTriple(line string) (Triple, error) {
	fields, err := splitBracketFields(line)
	if err != nil {
		return Triple{}, err
	}
	if len(fields) != 3 {
		return Triple{}, fmt.Errorf("kg: expected 3 bracketed fields, got %d in %q", len(fields), line)
	}
	return Triple{Subject: fields[0], Relation: fields[1], Object: fields[2]}, nil
}

// splitBracketFields extracts the contents of each <...> group in order.
func splitBracketFields(line string) ([]string, error) {
	var fields []string
	rest := line
	for {
		open := strings.IndexByte(rest, '<')
		if open < 0 {
			break
		}
		close := strings.IndexByte(rest[open:], '>')
		if close < 0 {
			return nil, fmt.Errorf("kg: unterminated '<' in %q", line)
		}
		fields = append(fields, strings.TrimSpace(rest[open+1:open+close]))
		rest = rest[open+close+1:]
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("kg: no bracketed fields in %q", line)
	}
	return fields, nil
}

// Graph is an ordered collection of triples: the paper's Gp, Gt, Gg and Gf
// are all Graph values. Order is significant — the verification prompt
// places higher-confidence subjects closer to the pseudo-graph, and
// time-varying facts must remain chronological.
type Graph struct {
	Triples []Triple
}

// NewGraph returns a graph over the given triples (the slice is used
// directly, not copied).
func NewGraph(ts ...Triple) *Graph {
	return &Graph{Triples: ts}
}

// Add appends triples to the graph.
func (g *Graph) Add(ts ...Triple) {
	g.Triples = append(g.Triples, ts...)
}

// Len returns the number of triples.
func (g *Graph) Len() int {
	if g == nil {
		return 0
	}
	return len(g.Triples)
}

// Strings renders every triple in order (nil for a nil or empty graph, so
// empty stays omitted on a JSON wire).
func (g *Graph) Strings() []string {
	if g.Len() == 0 {
		return nil
	}
	out := make([]string, 0, len(g.Triples))
	for _, t := range g.Triples {
		out = append(out, t.String())
	}
	return out
}

// Subjects returns the distinct subjects in first-appearance order.
func (g *Graph) Subjects() []string {
	seen := make(map[string]bool, len(g.Triples))
	var out []string
	for _, t := range g.Triples {
		if !seen[t.Subject] {
			seen[t.Subject] = true
			out = append(out, t.Subject)
		}
	}
	return out
}

// BySubject groups the graph's triples by subject, preserving within-group
// order. The returned map's slices alias nothing in the graph.
func (g *Graph) BySubject() map[string][]Triple {
	out := make(map[string][]Triple)
	for _, t := range g.Triples {
		out[t.Subject] = append(out[t.Subject], t)
	}
	return out
}

// Contains reports whether the graph contains a triple equal to t
// (surface-form comparison).
func (g *Graph) Contains(t Triple) bool {
	for _, u := range g.Triples {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

// ContainsSR reports whether any triple in the graph has the given
// subject and relation.
func (g *Graph) ContainsSR(subject, relation string) bool {
	for _, u := range g.Triples {
		if u.Subject == subject && u.Relation == relation {
			return true
		}
	}
	return false
}

// Dedup returns a new graph with duplicate surface-form triples removed,
// keeping first occurrences.
func (g *Graph) Dedup() *Graph {
	seen := make(map[string]bool, len(g.Triples))
	out := &Graph{Triples: make([]Triple, 0, len(g.Triples))}
	for _, t := range g.Triples {
		k := t.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Triples = append(out.Triples, t)
	}
	return out
}

// Clone returns a deep copy of the graph (nil clones to nil).
func (g *Graph) Clone() *Graph {
	if g == nil {
		return nil
	}
	out := &Graph{Triples: make([]Triple, len(g.Triples))}
	copy(out.Triples, g.Triples)
	return out
}

// String renders the graph one triple per line in angle-bracket form.
func (g *Graph) String() string {
	var b strings.Builder
	for i, t := range g.Triples {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// EntityBlocks renders the graph in the verification prompt's grouped form:
//
//	[entity_0]:
//	<s> <r> <o>
//	...
//
// Subjects appear in the order given; triples keep their in-graph order.
func (g *Graph) EntityBlocks(subjectOrder []string) string {
	by := g.BySubject()
	var b strings.Builder
	for i, s := range subjectOrder {
		ts, ok := by[s]
		if !ok {
			continue
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "[entity_%d]:\n", i)
		for j, t := range ts {
			if j > 0 {
				b.WriteByte('\n')
			}
			b.WriteString(t.String())
		}
	}
	return b.String()
}

// ParseGraph parses a newline-separated block of angle-bracket triples,
// skipping blank lines and lines that carry no triple (such as the
// "[entity_0]:" headers produced by EntityBlocks). A line that looks like a
// triple but is malformed yields an error.
func ParseGraph(text string) (*Graph, error) {
	g := &Graph{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || !strings.Contains(line, "<") {
			continue
		}
		t, err := ParseTriple(line)
		if err != nil {
			return nil, err
		}
		g.Add(t)
	}
	return g, nil
}
