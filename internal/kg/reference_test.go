package kg

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// keyed is the reference the store's reads are held to: the indexes the
// store used to keep beside its subject lists. A set of surface keys finds
// duplicates and answers Contains; each (subject, relation) list is kept
// in order as triples arrive, a new ID going after every entry whose Ord
// is equal or smaller. Its reads over the first n triples drop the IDs
// from n on.
type keyed struct {
	triples   []Triple
	byKey     map[string]int
	bySubject map[string][]int
	bySR      map[string][]int
}

func newKeyed() *keyed {
	return &keyed{byKey: map[string]int{}, bySubject: map[string][]int{}, bySR: map[string][]int{}}
}

func (k *keyed) add(t Triple) {
	if _, dup := k.byKey[t.Key()]; dup {
		return
	}
	t.ID, t.Source = len(k.triples), SourceWikidata
	k.triples = append(k.triples, t)
	k.byKey[t.Key()] = t.ID
	k.bySubject[t.Subject] = append(k.bySubject[t.Subject], t.ID)
	sr := k.bySR[t.SRKey()]
	at := len(sr)
	for at > 0 && k.triples[sr[at-1]].Ord > t.Ord {
		at--
	}
	k.bySR[t.SRKey()] = slices.Insert(sr, at, t.ID)
}

func (k *keyed) take(ids []int, n int) []Triple {
	var out []Triple
	for _, id := range ids {
		if id < n {
			out = append(out, k.triples[id])
		}
	}
	return out
}

func (k *keyed) has(s string, n int) bool {
	ids := k.bySubject[s]
	return len(ids) > 0 && ids[0] < n
}

func (k *keyed) contains(t Triple, n int) bool {
	id, ok := k.byKey[t.Key()]
	return ok && id < n
}

// fold is the exact subject when the first n triples hold it, else the
// subject of the first of them whose subject folds alike.
func (k *keyed) fold(q string, n int) (string, bool) {
	if k.has(q, n) {
		return q, true
	}
	for _, t := range k.triples[:n] {
		if strings.EqualFold(t.Subject, q) { // the subjects are ASCII
			return t.Subject, true
		}
	}
	return "", false
}

// TestStoreAndPrefixReadsMatchKeyedReference drives random histories —
// duplicates, subjects that fold alike, time-varying ordinals that repeat
// and fall — through a store, and holds the store and every Prefix(n) of
// it to the keyed reference on Subject, SubjectRelation, Contains,
// HasSubject and FindSubjectFold. One history gives a single subject
// 2 000 triples.
func TestStoreAndPrefixReadsMatchKeyedReference(t *testing.T) {
	relations := []string{"population", "area", "capital"}
	for _, tc := range []struct {
		name     string
		subjects []string
		adds     int
		objects  int
	}{
		{"folding subjects", []string{"Lake Superior", "LAKE SUPERIOR", "lake superior", "China", "Beijing", "beijing"}, 300, 8},
		{"one subject, 2000 triples", []string{"Hub"}, 2100, 30000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			st, ref := NewStore(SourceWikidata), newKeyed()
			var universe []Triple
			ord := 0
			for range tc.adds {
				tr := NewTriple(tc.subjects[rng.Intn(len(tc.subjects))], relations[rng.Intn(len(relations))], fmt.Sprint(rng.Intn(tc.objects)))
				switch rng.Intn(4) {
				case 0: // a fact with no time
				case 1:
					ord++ // rising
					tr.Ord = ord
				case 2:
					tr.Ord = ord // equal to the last
				case 3:
					tr.Ord = rng.Intn(ord + 1) // falling
				}
				st.Add(tr)
				ref.add(tr)
				universe = append(universe, tr)
			}
			if st.Len() != len(ref.triples) {
				t.Fatalf("the store holds %d triples, the reference %d", st.Len(), len(ref.triples))
			}
			if len(tc.subjects) == 1 && len(ref.triples) < 2000 {
				t.Fatalf("the one subject has %d triples, want at least 2000", len(ref.triples))
			}
			absent := []Triple{NewTriple(tc.subjects[0], "population", "absent"), NewTriple("Atlantis", "area", "1")}
			probes := append(slices.Clone(tc.subjects), "Atlantis", "CHINA", "hub")
			for n := 0; n <= st.Len(); n++ {
				var got view = st.Prefix(n)
				// Every added triple is probed on the whole store; each
				// prefix probes 8 of them, drawn afresh.
				probed := universe
				if n < st.Len() {
					probed = slices.Clone(absent)
					for range 8 {
						probed = append(probed, universe[rng.Intn(len(universe))])
					}
				} else {
					got = st
					probed = append(probed, absent...)
				}
				requireKeyedReads(t, fmt.Sprintf("prefix of %d", n), got, ref, n, probes, relations, probed)
			}
		})
	}
}

// requireKeyedReads fails unless got answers like ref over its first n
// triples on every probe subject, relation and universe triple.
func requireKeyedReads(t *testing.T, what string, got view, ref *keyed, n int, subjects, relations []string, universe []Triple) {
	t.Helper()
	for _, tr := range universe {
		if g, w := got.Contains(tr), ref.contains(tr, n); g != w {
			t.Fatalf("%s: Contains(%v) = %v, want %v", what, tr, g, w)
		}
	}
	for _, s := range subjects {
		if g, w := got.Subject(s), ref.take(ref.bySubject[s], n); !slices.Equal(g, w) {
			t.Fatalf("%s: Subject(%q) = %v, want %v", what, s, g, w)
		}
		if g, w := got.HasSubject(s), ref.has(s, n); g != w {
			t.Fatalf("%s: HasSubject(%q) = %v, want %v", what, s, g, w)
		}
		for _, q := range []string{s, strings.ToLower(s), strings.ToUpper(s)} {
			g, gok := got.FindSubjectFold(q)
			w, wok := ref.fold(q, n)
			if g != w || gok != wok {
				t.Fatalf("%s: FindSubjectFold(%q) = %q, %v, want %q, %v", what, q, g, gok, w, wok)
			}
		}
		for _, r := range relations {
			if g, w := got.SubjectRelation(s, r), ref.take(ref.bySR[s+"\x00"+r], n); !slices.Equal(g, w) {
				t.Fatalf("%s: SubjectRelation(%q, %q) = %v, want %v", what, s, r, g, w)
			}
		}
	}
}
