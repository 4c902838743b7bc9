package kg

import (
	"fmt"
	"testing"
	"testing/quick"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	st := NewStore(SourceWikidata)
	st.AddAll([]Triple{
		{Subject: "China", Relation: "population", Object: "1375198619", Ord: 0},
		{Subject: "China", Relation: "population", Object: "1443497378", Ord: 2},
		{Subject: "China", Relation: "capital", Object: "Beijing"},
		{Subject: "China", Relation: "population", Object: "1442965000", Ord: 1},
		{Subject: "Beijing", Relation: "country", Object: "China"},
	})
	st.Freeze()
	return st
}

func TestStoreIndexes(t *testing.T) {
	st := newTestStore(t)
	if got := len(st.Subject("China")); got != 4 {
		t.Errorf("Subject(China) = %d triples, want 4", got)
	}
	if got := len(st.Subject("Beijing")); got != 1 {
		t.Errorf("Subject(Beijing) = %d triples, want 1", got)
	}
	if got := len(st.SubjectRelation("China", "population")); got != 3 {
		t.Errorf("SubjectRelation(China, population) = %d, want 3", got)
	}
	if got := len(st.SubjectRelation("China", "country")); got != 0 {
		t.Errorf("SubjectRelation(China, country) = %d, want 0", got)
	}
	if !st.HasSubject("Beijing") || st.HasSubject("population") {
		t.Error("HasSubject answers from something other than subjects")
	}
	if !st.Contains(NewTriple("Beijing", "country", "China")) {
		t.Error("Contains missed a stored triple")
	}
}

func TestStoreFreezeOrdersTimeVarying(t *testing.T) {
	st := newTestStore(t)
	pops := st.SubjectRelation("China", "population")
	if len(pops) != 3 {
		t.Fatalf("got %d population triples, want 3", len(pops))
	}
	for i := 1; i < len(pops); i++ {
		if pops[i-1].Ord > pops[i].Ord {
			t.Errorf("SR posting not ord-sorted: %v", pops)
		}
	}
	if pops[2].Object != "1443497378" {
		t.Errorf("latest population = %q, want 1443497378", pops[2].Object)
	}
}

func TestStoreDuplicateIgnored(t *testing.T) {
	st := NewStore(SourceFreebase)
	id1, added1 := st.Add(NewTriple("a", "r", "x"))
	id2, added2 := st.Add(NewTriple("a", "r", "x"))
	if !added1 || added2 {
		t.Errorf("duplicate handling wrong: added1=%v added2=%v", added1, added2)
	}
	if id1 != id2 {
		t.Errorf("duplicate got different IDs: %d vs %d", id1, id2)
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
}

func TestStoreAddAfterFreezePanics(t *testing.T) {
	st := NewStore(SourceWikidata)
	st.Freeze()
	defer func() {
		if recover() == nil {
			t.Error("Add after Freeze did not panic")
		}
	}()
	st.Add(NewTriple("a", "r", "x"))
}

func TestStoreSourceTagging(t *testing.T) {
	st := NewStore(SourceFreebase)
	st.Add(NewTriple("a", "r", "x"))
	got, ok := st.Get(0)
	if !ok || got.Source != SourceFreebase {
		t.Errorf("stored triple source = %v, want freebase", got.Source)
	}
}

func TestStoreFindSubjectFold(t *testing.T) {
	st := newTestStore(t)
	if s, ok := st.FindSubjectFold("china"); !ok || s != "China" {
		t.Errorf("FindSubjectFold(china) = %q, %v", s, ok)
	}
	if _, ok := st.FindSubjectFold("atlantis"); ok {
		t.Error("FindSubjectFold found a non-subject")
	}
}

func TestStoreStats(t *testing.T) {
	st := newTestStore(t)
	s := st.Stats()
	if s.Triples != 5 || s.Subjects != 2 || s.Relations != 3 || s.Objects != 5 {
		t.Errorf("Stats = %+v", s)
	}
	// Relations and objects are counted once however many triples share them.
	if s := aliasingStore(t).Stats(); s.Triples != 4 || s.Subjects != 2 || s.Relations != 2 || s.Objects != 3 {
		t.Errorf("Stats = %+v", s)
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestStoreGetOutOfRange(t *testing.T) {
	st := newTestStore(t)
	if _, ok := st.Get(-1); ok {
		t.Error("Get(-1) should fail")
	}
	if _, ok := st.Get(99); ok {
		t.Error("Get(99) should fail")
	}
}

// Property: every added triple is findable via its (subject, relation)
// list, and All preserves insertion order of first occurrences.
func TestStoreIndexConsistency(t *testing.T) {
	f := func(raw []uint8) bool {
		st := NewStore(SourceWikidata)
		var inserted []Triple
		seen := map[string]bool{}
		for _, b := range raw {
			tr := Triple{
				Subject:  fmt.Sprintf("s%d", b%7),
				Relation: fmt.Sprintf("r%d", b%3),
				Object:   fmt.Sprintf("o%d", b%5),
			}
			if !seen[tr.Key()] {
				seen[tr.Key()] = true
				inserted = append(inserted, tr)
			}
			st.Add(tr)
		}
		st.Freeze()
		if st.Len() != len(inserted) {
			return false
		}
		for _, tr := range inserted {
			found := false
			for _, got := range st.SubjectRelation(tr.Subject, tr.Relation) {
				if got.Object == tr.Object {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		all := st.All()
		for i, tr := range inserted {
			if !all[i].Equal(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
