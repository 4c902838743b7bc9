package kg

// Reader is what a QA method reads of a triple substrate: a subject's
// block, a (subject, relation) list, a subject probe and the case-folded
// subject lookup. *Store implements it, and so does *Prefix, the view of a
// store's first n triples that every substrate snapshot is, so the
// pipeline and the baselines run against any consistent snapshot without
// knowing how it is held. Each read's result is a function of the view's
// triple set, which is what lets a cached answer replay its reads against
// a later snapshot (the answer package's read log).
//
// Implementations must be safe for concurrent readers and must return
// slices the caller owns: appending to or mutating a returned slice never
// affects the underlying substrate.
type Reader interface {
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
