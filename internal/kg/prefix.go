package kg

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// Prefix is the read view of a store's first n triples. It never changes
// however the store grows (see Store's concurrency note), and its reads
// take the store's read lock; the store's own reads are those of the view
// of all its triples. It answers every
// Reader call exactly as a store holding only those n triples, in order,
// would: same IDs, (subject, relation) lists in Ord order, the same fold.
type Prefix struct {
	st *Store
	n  int
}

var _ Reader = (*Prefix)(nil)

// Prefix returns the view of the store's first n triples; n is clamped to
// the store's length.
func (st *Store) Prefix(n int) *Prefix {
	return &Prefix{st: st, n: min(n, st.Len())}
}

// Source returns the store's KG source.
func (p *Prefix) Source() Source { return p.st.source }

// Len returns the number of triples in the view.
func (p *Prefix) Len() int { return p.n }

// All returns a copy of the view's triples in insertion order.
func (p *Prefix) All() []Triple {
	p.st.mu.RLock()
	defer p.st.mu.RUnlock()
	return append(make([]Triple, 0, p.n), p.st.triples[:p.n]...)
}

// Triples returns the view's triples in insertion order without copying
// them: the slice shares the store's storage, which appends never write
// below n, so it never changes. Callers must not write to it.
func (p *Prefix) Triples() []Triple {
	p.st.mu.RLock()
	defer p.st.mu.RUnlock()
	return p.st.triples[:p.n:p.n]
}

// Contains reports whether the view holds a triple with t's surface form.
func (p *Prefix) Contains(t Triple) bool {
	p.st.mu.RLock()
	defer p.st.mu.RUnlock()
	_, ok := p.st.find(t, p.n)
	return ok
}

// Subject returns the view's triples whose subject matches exactly.
func (p *Prefix) Subject(s string) []Triple {
	p.st.mu.RLock()
	defer p.st.mu.RUnlock()
	ids := p.st.bySubject[s] // ascending: subject lists are never re-sorted
	out := make([]Triple, 0, len(ids))
	for _, id := range ids[:sort.SearchInts(ids, p.n)] {
		out = append(out, p.st.triples[id])
	}
	return out
}

// SubjectRelation returns the view's (subject, relation) triples in Ord
// order, equal ordinals in ID order: the subject's triples with the
// relation, stable-sorted by Ord.
func (p *Prefix) SubjectRelation(s, r string) []Triple {
	out := p.Subject(s)
	out = slices.DeleteFunc(out, func(t Triple) bool { return t.Relation != r })
	slices.SortStableFunc(out, func(a, b Triple) int { return cmp.Compare(a.Ord, b.Ord) })
	return out
}

// HasSubject reports whether any of the view's triples has the subject.
func (p *Prefix) HasSubject(s string) bool {
	p.st.mu.RLock()
	defer p.st.mu.RUnlock()
	ids := p.st.bySubject[s]
	return len(ids) > 0 && ids[0] < p.n
}

// FindSubjectFold is Store.FindSubjectFold over the view's triples.
func (p *Prefix) FindSubjectFold(q string) (string, bool) {
	if p.HasSubject(q) {
		return q, true
	}
	p.st.mu.RLock()
	defer p.st.mu.RUnlock()
	// The first-inserted subject of a fold has its smallest first ID, so
	// when that is not below n no subject of the fold is.
	if id, ok := p.st.byFold[strings.ToLower(q)]; ok && id < p.n {
		return p.st.triples[id].Subject, true
	}
	return "", false
}
