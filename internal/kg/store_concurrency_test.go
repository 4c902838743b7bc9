package kg

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// concurrencyStore builds a store with enough shape to make the read
// paths non-trivial.
func concurrencyStore() *Store {
	st := NewStore(SourceWikidata)
	for i := 0; i < 200; i++ {
		subj := fmt.Sprintf("Entity%d", i%50)
		st.Add(Triple{
			Subject:  subj,
			Relation: fmt.Sprintf("rel%d", i%7),
			Object:   fmt.Sprintf("Object%d", i),
			Ord:      i % 3,
		})
	}
	return st
}

// TestStoreConcurrentReadsAfterFreeze hammers every read path from 32
// goroutines on a frozen store; run with -race.
func TestStoreConcurrentReadsAfterFreeze(t *testing.T) {
	st := concurrencyStore()
	st.Freeze()
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				subj := fmt.Sprintf("Entity%d", (g+i)%50)
				if len(st.Subject(subj)) == 0 {
					t.Errorf("subject %s lost", subj)
					return
				}
				st.SubjectRelation(subj, fmt.Sprintf("rel%d", i%7))
				if got, ok := st.FindSubjectFold(strings.ToLower(subj)); !ok || got != subj {
					t.Errorf("FindSubjectFold(%s) = %q, %v", strings.ToLower(subj), got, ok)
					return
				}
				if !st.HasSubject(subj) {
					t.Errorf("HasSubject(%s) = false", subj)
					return
				}
				if i%20 == 0 {
					_ = st.Len()
					_ = st.Stats()
					_ = st.All()
					if !st.Contains(Triple{Subject: fmt.Sprintf("Entity%d", i%50), Relation: fmt.Sprintf("rel%d", i%7), Object: fmt.Sprintf("Object%d", i)}) {
						t.Errorf("Contains lost triple %d", i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStoreFreezeRacesReaders freezes the store while 32 goroutines read:
// Freeze writes the store's latch, so it must exclude readers. Run with
// -race.
func TestStoreFreezeRacesReaders(t *testing.T) {
	st := concurrencyStore()
	const goroutines = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 100; i++ {
				subj := fmt.Sprintf("Entity%d", (g+i)%50)
				got := st.SubjectRelation(subj, fmt.Sprintf("rel%d", i%7))
				for _, tr := range got {
					if tr.Subject != subj {
						t.Errorf("SubjectRelation returned foreign triple %+v", tr)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		st.Freeze()
	}()
	close(start)
	wg.Wait()

	// After the dust settles, SR lists are Ord-sorted.
	for i := 0; i < 50; i++ {
		subj := fmt.Sprintf("Entity%d", i)
		for r := 0; r < 7; r++ {
			ts := st.SubjectRelation(subj, fmt.Sprintf("rel%d", r))
			for j := 1; j < len(ts); j++ {
				if ts[j-1].Ord > ts[j].Ord {
					t.Fatalf("post-freeze SR list unsorted for %s/rel%d", subj, r)
				}
			}
		}
	}
}

// TestStoreConcurrentFreezeIdempotent: many goroutines freezing at once
// must leave one consistent frozen store.
func TestStoreConcurrentFreezeIdempotent(t *testing.T) {
	st := concurrencyStore()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.Freeze()
		}()
	}
	wg.Wait()
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Freeze should panic")
		}
	}()
	st.Add(Triple{Subject: "s", Relation: "r", Object: "o"})
}

// TestPrefixReadsStableUnderOutOfOrderAdds: readers hold prefix views of
// one (subject, relation) list while a writer adds to it ordinals that
// land before entries the views already hold. Each view keeps returning
// what it returned when it was taken — the first n triples in Ord order,
// equal ordinals in ID order — however the list moves under it. Run with
// -race.
func TestPrefixReadsStableUnderOutOfOrderAdds(t *testing.T) {
	st := NewStore(SourceWikidata)
	add := func(i int) {
		st.Add(Triple{Subject: "S", Relation: "r", Object: fmt.Sprint("o", i), Ord: (i * 37) % 11})
	}
	for i := range 20 {
		add(i)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var views []*Prefix
			var want [][]Triple
			for {
				p := st.Prefix(st.Len())
				got := p.SubjectRelation("S", "r")
				if len(got) != p.Len() {
					t.Errorf("a prefix of %d holds %d list entries", p.Len(), len(got))
					return
				}
				for j := 1; j < len(got); j++ {
					if a, b := got[j-1], got[j]; a.Ord > b.Ord || a.Ord == b.Ord && a.ID > b.ID {
						t.Errorf("a prefix of %d lists %v before %v", p.Len(), a, b)
						return
					}
				}
				views, want = append(views, p), append(want, got)
				for j, v := range views {
					if again := v.SubjectRelation("S", "r"); fmt.Sprint(again) != fmt.Sprint(want[j]) {
						t.Errorf("a prefix of %d changed under appends:\n got %v\nwant %v", v.Len(), again, want[j])
						return
					}
				}
				if len(views) > 8 {
					views, want = views[1:], want[1:]
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 20; i < 200; i++ {
		add(i)
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
}
