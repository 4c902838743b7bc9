package kg

// Reader is the read-only surface of a triple substrate. *Store implements
// it, and so does *Prefix, the view of a store's first n triples that
// every substrate snapshot is, so the pipeline and the baselines run
// against any consistent snapshot without knowing how it is held.
//
// Implementations must be safe for concurrent readers and must return
// slices the caller owns: appending to or mutating a returned slice never
// affects the underlying substrate.
type Reader interface {
	// Source identifies the KG schema the triples are rendered in.
	Source() Source
	// Len returns the number of triples in the view.
	Len() int
	// Get returns the triple with the given ID.
	Get(id int) (Triple, bool)
	// All returns every triple in insertion order.
	All() []Triple
	// Contains reports whether the view holds a triple with t's surface
	// form (Source, Ord and ID are ignored).
	Contains(t Triple) bool
	// Subject returns all triples whose subject matches exactly.
	Subject(s string) []Triple
	// SubjectRelation returns the (subject, relation) triples in Ord order.
	SubjectRelation(s, r string) []Triple
	// HasSubject reports whether any triple has the given subject.
	HasSubject(s string) bool
	// FindSubjectFold resolves a case-folded subject to its canonical form.
	FindSubjectFold(q string) (string, bool)
}

var _ Reader = (*Store)(nil)
