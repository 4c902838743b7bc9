package substrate

import (
	"sort"

	"repro/internal/kg"
)

// union is the consistent read view one snapshot exposes: a frozen base
// store plus a prefix view of the manager's delta store — the triples it
// held at publish time. Both halves are immutable (the delta only ever
// appends past the prefix), so the view never changes under a reader — a
// query that resolved this snapshot sees exactly these triples for its
// whole run, regardless of concurrent ingests or compactions.
//
// Triple IDs are remapped into one ID space: base IDs are unchanged, delta
// IDs are offset by the base length.
type union struct {
	base  *kg.Store
	delta *kg.Prefix
}

// newUnion builds the combined view. The base must be frozen, and both
// halves must share a source.
func newUnion(base *kg.Store, delta *kg.Prefix) *union {
	return &union{base: base, delta: delta}
}

var _ kg.Reader = (*union)(nil)

// Source returns the shared KG source.
func (u *union) Source() kg.Source { return u.base.Source() }

// Len returns the combined triple count.
func (u *union) Len() int { return u.base.Len() + u.delta.Len() }

// Get returns the triple with the given combined-space ID.
func (u *union) Get(id int) (kg.Triple, bool) {
	n := u.base.Len()
	if id < n {
		return u.base.Get(id)
	}
	t, ok := u.delta.Get(id - n)
	if ok {
		t.ID = id
	}
	return t, ok
}

// All returns every triple, base first then delta, IDs remapped.
func (u *union) All() []kg.Triple {
	out := append(u.base.All(), u.delta.All()...)
	for i := u.base.Len(); i < len(out); i++ {
		out[i].ID = i
	}
	return out
}

// Contains reports whether either half holds the triple's surface form.
func (u *union) Contains(t kg.Triple) bool {
	return u.base.Contains(t) || u.delta.Contains(t)
}

// merge concatenates a base result with a delta result, remapping the
// delta triples' IDs. Both inputs are caller-owned copies (the Store
// accessors' contract), so mutating and appending here is safe.
func (u *union) merge(b, d []kg.Triple) []kg.Triple {
	if len(d) == 0 {
		return b
	}
	off := u.base.Len()
	for i := range d {
		d[i].ID += off
	}
	return append(b, d...)
}

// Subject returns all triples whose subject matches exactly.
func (u *union) Subject(s string) []kg.Triple {
	return u.merge(u.base.Subject(s), u.delta.Subject(s))
}

// SubjectRelation returns the (subject, relation) triples in Ord order
// across both halves, so time-varying facts stay chronological even when
// an ingested value interleaves with base history.
func (u *union) SubjectRelation(s, r string) []kg.Triple {
	out := u.merge(u.base.SubjectRelation(s, r), u.delta.SubjectRelation(s, r))
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ord < out[j].Ord })
	return out
}

// HasSubject reports whether either half has the subject.
func (u *union) HasSubject(s string) bool {
	return u.base.HasSubject(s) || u.delta.HasSubject(s)
}

// FindSubjectFold resolves a case-folded subject, base winning ties.
func (u *union) FindSubjectFold(q string) (string, bool) {
	if s, ok := u.base.FindSubjectFold(q); ok {
		return s, ok
	}
	return u.delta.FindSubjectFold(q)
}
