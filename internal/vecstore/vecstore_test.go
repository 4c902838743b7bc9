package vecstore

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/embed"
	"repro/internal/kg"
)

// search is s's top k for q alone.
func search(s Searcher, q string, k int) []Hit {
	return s.BatchSearchWith(s.Encoder().Encode, []string{q}, k)[0]
}

func buildTestIndex(t *testing.T) *Sharded {
	t.Helper()
	enc := embed.NewEncoder()
	st := kg.NewStore(kg.SourceWikidata)
	st.AddAll([]kg.Triple{
		kg.NewTriple("China", "population", "1443497378"),
		kg.NewTriple("China", "capital", "Beijing"),
		kg.NewTriple("Lake Superior", "area", "82350"),
		kg.NewTriple("Lake Michigan", "area", "57750"),
		kg.NewTriple("Allen Newell", "award received", "Turing Award"),
		kg.NewTriple("John McCarthy", "award received", "Turing Award"),
		kg.NewTriple("John McCarthy", "notable work", "LISP"),
	})
	st.Freeze()
	return Build(enc, st)
}

func TestSearchTopHit(t *testing.T) {
	idx := buildTestIndex(t)
	hits := idx.Search("China population 1400000000", 3)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Triple.Subject != "China" || hits[0].Triple.Relation != "population" {
		t.Errorf("top hit = %v", hits[0].Triple)
	}
}

func TestSearchDescendingScores(t *testing.T) {
	idx := buildTestIndex(t)
	hits := idx.Search("Lake Superior area", 5)
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Score < hits[i].Score {
			t.Errorf("scores not descending at %d: %v", i, hits)
		}
	}
}

func TestSearchKZero(t *testing.T) {
	idx := buildTestIndex(t)
	if hits := idx.Search("China", 0); hits != nil {
		t.Errorf("k=0 returned %v", hits)
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	idx := buildTestIndex(t)
	if hits := idx.Search("", 3); hits != nil {
		t.Errorf("empty query returned %v", hits)
	}
}

// TestFilteredAgreesOnTop: the token-filtered path returns the same number
// of hits as the exact scan and agrees on the top hit (the top hit always
// shares a word token with these queries, so the filter cannot lose it).
func TestFilteredAgreesOnTop(t *testing.T) {
	idx := buildTestIndex(t)
	queries := []string{
		"China population",
		"lake area 80000",
		"who received the Turing Award",
		"John McCarthy LISP",
	}
	for _, q := range queries {
		fast := idx.Search(q, 4)
		exact := idx.SearchExact(q, 4)
		if len(fast) != len(exact) {
			t.Fatalf("query %q: len mismatch %d vs %d", q, len(fast), len(exact))
		}
		if !fast[0].Triple.Equal(exact[0].Triple) {
			t.Errorf("query %q: top hit differs: %v vs %v", q, fast[0].Triple, exact[0].Triple)
		}
		for i := 1; i < len(fast); i++ {
			if fast[i].Score > exact[0].Score {
				t.Errorf("query %q: filtered score exceeds exact max", q)
			}
		}
	}
}

// Property: filtered search returns as many hits as the exact scan, never
// returns a better-than-exact top score, and when the exact top hit shares
// a word token with the query the filtered path finds the same top hit.
func TestFilteredVsExactProperty(t *testing.T) {
	enc := embed.NewEncoder()
	f := func(raw []uint8, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var triples []kg.Triple
		for i, b := range raw {
			triples = append(triples, kg.Triple{
				Subject:  fmt.Sprintf("ent%d", b%11),
				Relation: fmt.Sprintf("rel%d", b%5),
				Object:   fmt.Sprintf("val%d", i),
			})
		}
		idx := BuildTriples(enc, triples)
		q := fmt.Sprintf("ent%d rel%d", qa%11, qb%5)
		fast := idx.Search(q, 5)
		exact := idx.SearchExact(q, 5)
		if len(fast) != len(exact) {
			return false
		}
		if len(exact) == 0 {
			return true
		}
		if len(fast) > 0 && fast[0].Score > exact[0].Score+1e-9 {
			return false
		}
		topShares := false
		qTokens := map[string]bool{}
		for _, tok := range embed.Tokenize(q) {
			qTokens[tok] = true
		}
		for _, tok := range embed.Tokenize(exact[0].Triple.Text()) {
			if qTokens[tok] {
				topShares = true
				break
			}
		}
		if topShares && !fast[0].Triple.Equal(exact[0].Triple) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSearchNoTokenOverlapFallsBack(t *testing.T) {
	idx := buildTestIndex(t)
	// Query shares no word token; fallback must still return k results
	// (scored via char features).
	hits := idx.Search("zzz qqq", 2)
	if len(hits) != 2 {
		t.Errorf("fallback returned %d hits, want 2", len(hits))
	}
}

func TestBatchSearchOrder(t *testing.T) {
	idx := buildTestIndex(t)
	queries := []string{"China population", "Lake Superior area", "Turing Award"}
	res := idx.BatchSearchWith(idx.Encoder().Encode, queries, 2)
	if len(res) != 3 {
		t.Fatalf("batch returned %d result sets", len(res))
	}
	for i, q := range queries {
		want := idx.Search(q, 2)
		if len(res[i]) != len(want) {
			t.Errorf("batch[%d] len %d != %d", i, len(res[i]), len(want))
			continue
		}
		for j := range want {
			if !res[i][j].Triple.Equal(want[j].Triple) {
				t.Errorf("batch[%d][%d] = %v, want %v", i, j, res[i][j].Triple, want[j].Triple)
			}
		}
	}
}

func TestKLargerThanIndex(t *testing.T) {
	idx := buildTestIndex(t)
	hits := idx.Search("China", 100)
	if len(hits) == 0 || len(hits) > idx.Len() {
		t.Errorf("k>len returned %d hits (index %d)", len(hits), idx.Len())
	}
}

// TestStats: a plain index is every row in one block.
func TestStats(t *testing.T) {
	idx := buildTestIndex(t)
	if idx.Len() != 7 || idx.Shards() != 1 {
		t.Errorf("%d rows in %d blocks, want 7 in 1", idx.Len(), idx.Shards())
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	enc := embed.NewEncoder()
	triples := []kg.Triple{
		kg.NewTriple("x", "r", "a"),
		kg.NewTriple("x", "r", "b"),
		kg.NewTriple("x", "r", "c"),
	}
	idx := BuildTriples(enc, triples)
	first := idx.Search("x r", 3)
	for i := 0; i < 5; i++ {
		again := idx.Search("x r", 3)
		for j := range first {
			if !first[j].Triple.Equal(again[j].Triple) {
				t.Fatalf("tie-break not deterministic on run %d", i)
			}
		}
	}
}

// TestSearchPreEncodedMatchesSearch: searching with a supplied embedding
// (the path every method's search takes) must return exactly what Search
// does.
func TestSearchPreEncodedMatchesSearch(t *testing.T) {
	idx := buildTestIndex(t)
	for _, query := range []string{
		"China population 1400000000",
		"Turing Award winners",
		"area of Lake Superior",
		"",                    // no tokens: empty both ways
		"zzz qqq vvv unknown", // no overlap: exact-scan fallback
	} {
		qv := idx.Encoder().Encode(query)
		want := idx.Search(query, 3)
		got := idx.BatchSearchWith(func(string) embed.Vector { return qv }, []string{query}, 3)[0]
		if len(got) != len(want) {
			t.Fatalf("%q: %d hits vs %d", query, len(got), len(want))
		}
		for i := range got {
			if got[i].Triple.Key() != want[i].Triple.Key() || got[i].Score != want[i].Score {
				t.Errorf("%q hit %d: %+v vs %+v", query, i, got[i], want[i])
			}
		}
	}
}
