package kg

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Store is an indexed, in-memory triple store. It keeps exactly the access
// paths the pipeline, the baselines and the substrate's writer read:
//
//   - every triple in insertion order, by ID (vector-store construction,
//     checkpoints, Get);
//   - all triples for a subject (entity blocks, HasSubject);
//   - all triples for a (subject, relation) pair (fact lookup, time series);
//   - a triple by its surface form (Contains, duplicate suppression on Add);
//   - a case-folded subject to its canonical form (FindSubjectFold).
//
// Each (subject, relation) list is kept in Ord order as triples arrive:
// a new ID goes after every entry whose Ord is equal or smaller, so equal
// ordinals stay in ID order and time-varying facts read chronologically,
// as the verification prompt requires. Subject lists are in ID order.
//
// Store is safe for concurrent use: every read takes the read lock, every
// Add the write lock. IDs are assigned in insertion order and nothing is
// ever removed or reordered, so the first n triples — and, in the same
// order, the entries below n of every list — never change once added:
// Prefix serves them as an immutable view while the store keeps growing.
// The substrate's snapshots are such views. Freeze only latches the store
// read-only.
type Store struct {
	mu     sync.RWMutex
	source Source

	triples []Triple

	bySubject map[string][]int
	bySR      map[string][]int
	byKey     map[string]int
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
		bySR:      make(map[string][]int),
		byKey:     make(map[string]int),
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
	key := t.Key()
	if id, ok := st.byKey[key]; ok {
		return id, false
	}
	id := len(st.triples)
	t.ID = id
	t.Source = st.source
	st.triples = append(st.triples, t)
	st.byKey[key] = id
	if len(st.bySubject[t.Subject]) == 0 {
		folded := strings.ToLower(t.Subject)
		if _, ok := st.byFold[folded]; !ok {
			st.byFold[folded] = id
		}
	}
	st.bySubject[t.Subject] = append(st.bySubject[t.Subject], id)
	srKey := t.SRKey()
	sr := st.bySR[srKey]
	at := len(sr)
	for at > 0 && st.triples[sr[at-1]].Ord > t.Ord {
		at--
	}
	st.bySR[srKey] = slices.Insert(sr, at, id)
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
func (st *Store) All() []Triple {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]Triple, len(st.triples))
	copy(out, st.triples)
	return out
}

// take returns the triples at the given ids in order.
func (st *Store) take(ids []int) []Triple {
	out := make([]Triple, 0, len(ids))
	for _, id := range ids {
		out = append(out, st.triples[id])
	}
	return out
}

// Contains reports whether the store holds a triple with t's surface form
// (Source, Ord and ID are ignored).
func (st *Store) Contains(t Triple) bool {
	return st.ContainsKey(t.Key())
}

// ContainsKey reports whether the store holds a triple whose Key is key.
func (st *Store) ContainsKey(key string) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.byKey[key]
	return ok
}

// Subject returns all triples whose subject matches exactly.
func (st *Store) Subject(s string) []Triple {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.take(st.bySubject[s])
}

// SubjectRelation returns the triples for (subject, relation) in Ord
// order, equal ordinals in ID order.
func (st *Store) SubjectRelation(s, r string) []Triple {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.take(st.bySR[s+"\x00"+r])
}

// HasSubject reports whether any triple has the given subject.
func (st *Store) HasSubject(s string) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.bySubject[s]) > 0
}

// FindSubjectFold returns the canonical subject whose case-folded form
// matches the query, if any: the query itself when it is a subject, else
// the first-inserted subject that folds as it does. Pseudo-triples often
// differ from KG entities only in capitalisation ("lake superior" vs
// "Lake Superior").
func (st *Store) FindSubjectFold(q string) (string, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.findSubjectFold(q, len(st.triples))
}

// findSubjectFold is FindSubjectFold over the first n triples. Caller
// holds st.mu for reading.
func (st *Store) findSubjectFold(q string, n int) (string, bool) {
	if ids := st.bySubject[q]; len(ids) > 0 && ids[0] < n {
		return q, true
	}
	// The first-inserted subject of a fold has its smallest first ID, so
	// when that is not below n no subject of the fold is.
	if id, ok := st.byFold[strings.ToLower(q)]; ok && id < n {
		return st.triples[id].Subject, true
	}
	return "", false
}

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
