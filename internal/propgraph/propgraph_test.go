package propgraph

import (
	"testing"
)

func TestValues(t *testing.T) {
	tests := []struct {
		v   Value
		str string
	}{
		{StringValue("x"), "x"},
		{IntValue(42), "42"},
		{FloatValue(2.5), "2.5"},
		{BoolValue(true), "true"},
	}
	for _, tt := range tests {
		if tt.v.String() != tt.str {
			t.Errorf("String = %q, want %q", tt.v.String(), tt.str)
		}
	}
	var zero Value
	if zero.String() != "" {
		t.Error("zero Value misbehaves")
	}
}

func TestValueAccessors(t *testing.T) {
	if s, ok := StringValue("a").AsString(); !ok || s != "a" {
		t.Error("AsString")
	}
	if _, ok := IntValue(7).AsString(); ok {
		t.Error("int AsString should fail")
	}
}

func TestCreateNodeAndRel(t *testing.T) {
	g := New()
	a := g.CreateNode([]string{"Person"}, map[string]Value{"name": StringValue("Ada")})
	b := g.CreateNode([]string{"City"}, map[string]Value{"name": StringValue("London")})
	r, err := g.CreateRel(a.ID, b.ID, "BORN_IN", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.From != a.ID || r.To != b.ID || r.Type != "BORN_IN" {
		t.Errorf("rel = %+v", r)
	}
	if len(g.nodes) != 2 || len(g.rels) != 1 {
		t.Errorf("counts: %d nodes %d rels", len(g.nodes), len(g.rels))
	}
}

func TestCreateRelValidation(t *testing.T) {
	g := New()
	a := g.CreateNode(nil, nil)
	if _, err := g.CreateRel(a.ID, 99, "R", nil); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if _, err := g.CreateRel(a.ID, a.ID, "", nil); err == nil {
		t.Error("empty rel type accepted")
	}
}

func TestNodeName(t *testing.T) {
	g := New()
	named := g.CreateNode([]string{"X"}, map[string]Value{"name": StringValue("Ada")})
	if named.Name() != "Ada" {
		t.Errorf("Name = %q", named.Name())
	}
	// No name property: smallest string property key wins.
	fallback := g.CreateNode([]string{"X"}, map[string]Value{
		"z": StringValue("zz"), "a": StringValue("aa"), "n": IntValue(1),
	})
	if fallback.Name() != "aa" {
		t.Errorf("fallback Name = %q", fallback.Name())
	}
	// No string properties at all: label.
	labelled := g.CreateNode([]string{"Lake"}, map[string]Value{"area": IntValue(5)})
	if labelled.Name() != "Lake" {
		t.Errorf("label Name = %q", labelled.Name())
	}
}

func TestDecodeTriplesOrderAndContent(t *testing.T) {
	g := New()
	lake := g.CreateNode([]string{"Lake"}, map[string]Value{
		"name": StringValue("Lake Superior"),
		"area": IntValue(82000),
	})
	water := g.CreateNode([]string{"Waterway"}, map[string]Value{"name": StringValue("Keweenaw")})
	if _, err := g.CreateRel(lake.ID, water.ID, "CONNECTS_WITH", nil); err != nil {
		t.Fatal(err)
	}
	stmts := g.DecodeTriples()
	if len(stmts) != 2 {
		t.Fatalf("decoded %d statements, want 2: %v", len(stmts), stmts)
	}
	// Property triples come first (node order), then relationships.
	if stmts[0].Relation != "area" || stmts[0].Object != "82000" {
		t.Errorf("property statement = %+v", stmts[0])
	}
	if stmts[1].Relation != "connects with" || stmts[1].Object != "Keweenaw" {
		t.Errorf("relationship statement = %+v", stmts[1])
	}
}

func TestDecodeSkipsNamelessEndpoints(t *testing.T) {
	g := New()
	a := g.CreateNode(nil, nil) // no name, no label
	b := g.CreateNode([]string{"X"}, map[string]Value{"name": StringValue("B")})
	if _, err := g.CreateRel(a.ID, b.ID, "R", nil); err != nil {
		t.Fatal(err)
	}
	if stmts := g.DecodeTriples(); len(stmts) != 0 {
		t.Errorf("nameless endpoint produced statements: %v", stmts)
	}
}

func TestHasLabel(t *testing.T) {
	g := New()
	n := g.CreateNode([]string{"A", "B"}, nil)
	if !n.HasLabel("A") || !n.HasLabel("B") || n.HasLabel("C") {
		t.Error("HasLabel wrong")
	}
	if n.Label() != "A" {
		t.Errorf("Label = %q", n.Label())
	}
}
