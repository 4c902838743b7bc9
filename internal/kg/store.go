package kg

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// Store is an indexed, in-memory triple store. It holds each triple once,
// in insertion order by ID, and keeps two small indexes over it:
//
//   - a subject to its triples' IDs, ascending (entity blocks, HasSubject;
//     a (subject, relation) list is the subject's block filtered by
//     relation, and a duplicate is found by scanning the block, so both
//     cost the subject's degree);
//   - a case-folded subject to its canonical form (FindSubjectFold).
//
// A (subject, relation) list is in Ord order, equal ordinals in ID order,
// so time-varying facts read chronologically, as the verification prompt
// requires. Subject lists are in ID order.
//
// Store is safe for concurrent use: every read takes the read lock, every
// Add the write lock. IDs are assigned in insertion order and nothing is
// ever removed or reordered, so the first n triples — and, in the same
// order, the entries below n of every subject list — never change once
// added: Prefix serves them as an immutable view while the store keeps
// growing. The substrate's snapshots are such views. Freeze only latches
// the store read-only.
type Store struct {
	mu     sync.RWMutex
	source Source

	triples []Triple

	bySubject map[string][]int
	// byFold maps a lower-cased subject to the first triple of the
	// first-inserted subject that folds to it.
	byFold map[string]int

	frozen bool
}

// NewStore returns an empty store whose triples will be tagged with the
// given source.
func NewStore(source Source) *Store {
	return &Store{
		source:    source,
		bySubject: make(map[string][]int),
		byFold:    make(map[string]int),
	}
}

// Source returns the KG source the store holds.
func (st *Store) Source() Source {
	return st.source
}

// Len returns the number of stored triples.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.triples)
}

// Add inserts a triple, assigning its ID and Source. Duplicate surface
// forms are ignored (first write wins) so stores are idempotent under
// re-ingestion. It returns the triple's ID and whether it was newly added.
func (st *Store) Add(t Triple) (int, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.frozen {
		panic("kg: Add on frozen store")
	}
	id := len(st.triples)
	if dup, ok := st.find(t, id); ok {
		return dup, false
	}
	t.ID = id
	t.Source = st.source
	st.triples = append(st.triples, t)
	if len(st.bySubject[t.Subject]) == 0 {
		folded := strings.ToLower(t.Subject)
		if _, ok := st.byFold[folded]; !ok {
			st.byFold[folded] = id
		}
	}
	st.bySubject[t.Subject] = append(st.bySubject[t.Subject], id)
	return id, true
}

// AddAll inserts every triple in order, returning the count newly added.
func (st *Store) AddAll(ts []Triple) int {
	added := 0
	for _, t := range ts {
		if _, ok := st.Add(t); ok {
			added++
		}
	}
	return added
}

// Freeze marks the store read-only. Further Adds panic.
func (st *Store) Freeze() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.frozen = true
}

// Get returns the triple with the given ID.
func (st *Store) Get(id int) (Triple, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if id < 0 || id >= len(st.triples) {
		return Triple{}, false
	}
	return st.triples[id], true
}

// All returns a copy of every triple in insertion order.
func (st *Store) All() []Triple { return st.whole().All() }

// whole is the view of every triple the store holds now.
func (st *Store) whole() *Prefix { return st.Prefix(math.MaxInt) }

// find returns the ID below n of the triple with t's surface form, if
// there is one, by scanning t's subject list. Caller holds st.mu.
func (st *Store) find(t Triple, n int) (int, bool) {
	for _, id := range st.bySubject[t.Subject] {
		if id >= n {
			break
		}
		if u := st.triples[id]; u.Relation == t.Relation && u.Object == t.Object {
			return id, true
		}
	}
	return 0, false
}

// Contains reports whether the store holds a triple with t's surface form
// (Source, Ord and ID are ignored).
func (st *Store) Contains(t Triple) bool { return st.whole().Contains(t) }

// Subject returns all triples whose subject matches exactly.
func (st *Store) Subject(s string) []Triple { return st.whole().Subject(s) }

// SubjectRelation returns the triples for (subject, relation) in Ord
// order, equal ordinals in ID order.
func (st *Store) SubjectRelation(s, r string) []Triple { return st.whole().SubjectRelation(s, r) }

// HasSubject reports whether any triple has the given subject.
func (st *Store) HasSubject(s string) bool { return st.whole().HasSubject(s) }

// FindSubjectFold returns the canonical subject whose case-folded form
// matches the query, if any: the query itself when it is a subject, else
// the first-inserted subject that folds as it does. Pseudo-triples often
// differ from KG entities only in capitalisation ("lake superior" vs
// "Lake Superior").
func (st *Store) FindSubjectFold(q string) (string, bool) { return st.whole().FindSubjectFold(q) }

// Stats summarises the store for diagnostics.
type Stats struct {
	Source    Source
	Triples   int
	Subjects  int
	Relations int
	Objects   int
}

// Stats returns summary statistics. The store keeps no relation or object
// index, so it counts the distinct ones in a pass over the triples.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	relations := make(map[string]struct{})
	objects := make(map[string]struct{})
	for _, t := range st.triples {
		relations[t.Relation] = struct{}{}
		objects[t.Object] = struct{}{}
	}
	return Stats{
		Source:    st.source,
		Triples:   len(st.triples),
		Subjects:  len(st.bySubject),
		Relations: len(relations),
		Objects:   len(objects),
	}
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d triples, %d subjects, %d relations, %d objects",
		s.Source, s.Triples, s.Subjects, s.Relations, s.Objects)
}
