package kg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestFindSubjectFoldIsFirstInserted: of two subjects that fold alike, the
// one inserted first answers for the fold, on every call — a lookup
// that walked the subject map returned either, call by call — and a prefix
// view that holds only the second answers with that one.
func TestFindSubjectFoldIsFirstInserted(t *testing.T) {
	st := NewStore(SourceWikidata)
	st.Add(NewTriple("Lake Superior", "area", "82350"))
	st.Add(NewTriple("LAKE SUPERIOR", "area", "82103"))
	st.Add(NewTriple("Lake Superior", "country", "Canada"))
	for i := range 200 {
		if s, ok := st.FindSubjectFold("lake superior"); !ok || s != "Lake Superior" {
			t.Fatalf("call %d: FindSubjectFold(lake superior) = %q, %v", i, s, ok)
		}
	}
	if s, ok := st.FindSubjectFold("LAKE SUPERIOR"); !ok || s != "LAKE SUPERIOR" {
		t.Errorf("an exact subject folded to %q, %v", s, ok)
	}
	if s, ok := st.Prefix(1).FindSubjectFold("LAKE SUPERIOR"); !ok || s != "Lake Superior" {
		t.Errorf("the one-triple prefix folds LAKE SUPERIOR to %q, %v", s, ok)
	}
	if s, ok := st.Prefix(0).FindSubjectFold("lake superior"); ok {
		t.Errorf("the empty prefix folds to %q", s)
	}

	rev := NewStore(SourceWikidata)
	rev.Add(NewTriple("LAKE SUPERIOR", "area", "82103"))
	rev.Add(NewTriple("Lake Superior", "area", "82350"))
	if s, _ := rev.FindSubjectFold("lake superior"); s != "LAKE SUPERIOR" {
		t.Errorf("inserted first, LAKE SUPERIOR lost the fold to %q", s)
	}
}

// TestPrefixMatchesFrozenCopy: a prefix view taken of a growing store
// answers every read — IDs, (subject, relation) lists in Ord order,
// folds — exactly as a frozen store of the same triples and as the
// brute-force reference do, both when it is taken and after the store has
// grown past it; the growing store itself matches the reference at every
// step. The triples carry time-varying values with explicit ordinals out
// of insertion order, subjects that fold alike and duplicates.
func TestPrefixMatchesFrozenCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	subjects := []string{"Lake Superior", "LAKE SUPERIOR", "lake superior", "China", "Beijing", "beijing", "Mount Kenya"}
	relations := []string{"population", "area", "capital"}
	draw := func() Triple {
		t := NewTriple(subjects[rng.Intn(len(subjects))], relations[rng.Intn(len(relations))], fmt.Sprint(rng.Intn(12)))
		if rng.Intn(2) == 0 {
			t.Ord = rng.Intn(5)
		}
		return t
	}
	st := NewStore(SourceWikidata)
	type held struct {
		view   *Prefix
		frozen *Store
		ref    naive
	}
	var views []held
	probes := append(subjects, "atlantis", "ATLANTIS", "china", "MOUNT KENYA")
	check := func(stage string) {
		t.Helper()
		requireSameReads(t, stage+", the store", st, naive{SourceWikidata, st.All()}, probes, relations, st.All())
		for _, h := range views {
			what := fmt.Sprintf("%s, prefix of %d", stage, h.view.Len())
			requireSameReads(t, what, h.view, h.ref, probes, relations, st.All())
			requireSameReads(t, what+" against its frozen copy", h.view, h.frozen, probes, relations, st.All())
		}
	}
	for step := range 60 {
		st.AddAll([]Triple{draw(), draw()})
		if rng.Intn(3) == 0 {
			n := rng.Intn(st.Len() + 1)
			frozen := NewStore(SourceWikidata)
			frozen.AddAll(st.All()[:n])
			frozen.Freeze()
			views = append(views, held{st.Prefix(n), frozen, naive{SourceWikidata, st.All()[:n]}})
		}
		check(fmt.Sprint("step ", step))
	}
	st.Freeze()
	views = append(views, held{st.Prefix(st.Len()), st, naive{SourceWikidata, st.All()}})
	check("frozen")
}

// view is what a snapshot's Store offers: the Reader calls methods make,
// and the whole-view reads checkpoints and examples make on a *Prefix.
type view interface {
	Reader
	Source() Source
	Len() int
	All() []Triple
	Contains(t Triple) bool
}

// naive is the reference view the store is checked against: it shares
// no code with Store and answers every call by scanning its triples, held
// in ID order.
type naive struct {
	source  Source
	triples []Triple
}

func (r naive) Source() Source { return r.source }
func (r naive) Len() int       { return len(r.triples) }
func (r naive) All() []Triple  { return append([]Triple{}, r.triples...) }

func (r naive) Contains(t Triple) bool {
	for _, s := range r.triples {
		if s.Subject == t.Subject && s.Relation == t.Relation && s.Object == t.Object {
			return true
		}
	}
	return false
}

// Subject filters by subject.
func (r naive) Subject(s string) []Triple {
	out := []Triple{}
	for _, t := range r.triples {
		if t.Subject == s {
			out = append(out, t)
		}
	}
	return out
}

// SubjectRelation filters, then stable-sorts by Ord.
func (r naive) SubjectRelation(s, rel string) []Triple {
	out := []Triple{}
	for _, t := range r.Subject(s) {
		if t.Relation == rel {
			out = append(out, t)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ord < out[j].Ord })
	return out
}

func (r naive) HasSubject(s string) bool { return len(r.Subject(s)) > 0 }

// FindSubjectFold is the exact subject when there is one, else the subject
// of the first triple whose subject folds alike: the first-inserted one.
func (r naive) FindSubjectFold(q string) (string, bool) {
	if r.HasSubject(q) {
		return q, true
	}
	for _, t := range r.triples {
		if strings.ToLower(t.Subject) == strings.ToLower(q) {
			return t.Subject, true
		}
	}
	return "", false
}

// requireSameReads fails unless got answers every view call on the probe
// subjects (and their relations, case variants and every triple of
// universe) exactly as want does.
func requireSameReads(t *testing.T, what string, got, want view, subjects, relations []string, universe []Triple) {
	t.Helper()
	same := func(call string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s = %v, want %v", what, call, g, w)
		}
	}
	same("Source", got.Source(), want.Source())
	same("Len", got.Len(), want.Len())
	same("All", got.All(), want.All())
	for _, tr := range universe {
		same(fmt.Sprintf("Contains(%v)", tr), got.Contains(tr), want.Contains(tr))
	}
	for _, s := range subjects {
		same(fmt.Sprintf("Subject(%q)", s), got.Subject(s), want.Subject(s))
		same(fmt.Sprintf("HasSubject(%q)", s), got.HasSubject(s), want.HasSubject(s))
		for _, q := range []string{s, strings.ToLower(s), strings.ToUpper(s)} {
			g, gok := got.FindSubjectFold(q)
			w, wok := want.FindSubjectFold(q)
			same(fmt.Sprintf("FindSubjectFold(%q)", q), []any{g, gok}, []any{w, wok})
		}
		for _, r := range relations {
			same(fmt.Sprintf("SubjectRelation(%q, %q)", s, r), got.SubjectRelation(s, r), want.SubjectRelation(s, r))
		}
	}
}
