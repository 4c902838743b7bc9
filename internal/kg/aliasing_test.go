package kg

import (
	"testing"
)

// aliasingStore builds a store whose posting lists have more than one
// entry, so a buggy accessor that returned internal slices would be
// corruptible by callers.
func aliasingStore(t *testing.T) *Store {
	t.Helper()
	st := NewStore(SourceWikidata)
	st.AddAll([]Triple{
		{Subject: "A", Relation: "r1", Object: "x", Ord: 0},
		{Subject: "A", Relation: "r1", Object: "y", Ord: 1},
		{Subject: "A", Relation: "r2", Object: "z"},
		{Subject: "B", Relation: "r1", Object: "x"},
	})
	st.Freeze()
	return st
}

// TestAccessorsReturnCopies proves the anti-aliasing contract of kg.Reader:
// appending to or mutating a returned slice must never change what the
// reader returns next. Served reads go through a snapshot, so every slice
// read runs against the store, a prefix holding all of it and a shorter
// prefix.
func TestAccessorsReturnCopies(t *testing.T) {
	// A snapshot's Store is a *Prefix; All is how checkpoints read it.
	type view interface {
		Reader
		All() []Triple
	}
	st := aliasingStore(t)
	views := []struct {
		name string
		r    view
	}{
		{"store", st},
		{"prefix-full", st.Prefix(st.Len())},
		{"prefix-short", st.Prefix(2)},
	}
	cases := []struct {
		name string
		get  func(view) []Triple
	}{
		{"Subject", func(r view) []Triple { return r.Subject("A") }},
		{"SubjectRelation", func(r view) []Triple { return r.SubjectRelation("A", "r1") }},
		{"All", func(r view) []Triple { return r.All() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range views {
				t.Run(v.name, func(t *testing.T) {
					before := tc.get(v.r)
					if len(before) == 0 {
						t.Fatalf("%s returned nothing", tc.name)
					}
					// Mutate every element and append a poison triple.
					mutated := tc.get(v.r)
					for i := range mutated {
						mutated[i].Subject = "CORRUPTED"
						mutated[i].Object = "CORRUPTED"
					}
					_ = append(mutated, Triple{Subject: "POISON", Relation: "p", Object: "p"})

					after := tc.get(v.r)
					if len(after) != len(before) {
						t.Fatalf("%s length changed after caller mutation: %d -> %d", tc.name, len(before), len(after))
					}
					for i := range after {
						if !after[i].Equal(before[i]) {
							t.Errorf("%s[%d] changed after caller mutation: %v -> %v", tc.name, i, before[i], after[i])
						}
					}
				})
			}
		})
	}
}

func TestContains(t *testing.T) {
	st := aliasingStore(t)
	if !st.Contains(Triple{Subject: "A", Relation: "r1", Object: "x"}) {
		t.Error("Contains missed a stored triple")
	}
	// Source, Ord and ID are ignored in the comparison.
	if !st.Contains(Triple{Subject: "A", Relation: "r1", Object: "x", Source: SourceFreebase, Ord: 9, ID: 42}) {
		t.Error("Contains must ignore Source/Ord/ID")
	}
	if st.Contains(Triple{Subject: "A", Relation: "r1", Object: "nope"}) {
		t.Error("Contains invented a triple")
	}
}

func TestGraphCloneNil(t *testing.T) {
	var g *Graph
	if g.Clone() != nil {
		t.Error("nil graph must clone to nil")
	}
}
