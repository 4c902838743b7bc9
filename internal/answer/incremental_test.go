package answer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/vecstore"
)

// incrementalPool draws n triples over a small vocabulary, so queries
// share tokens with many rows, in random order. Mixed in are tie groups:
// triples whose fields differ but whose text — so embedding and every
// score — is the same, and which are therefore ordered by surface form
// alone. It returns the tie groups' texts too.
func incrementalPool(rng *rand.Rand, n int) (triples []kg.Triple, ties []string) {
	words := []string{"lake", "river", "mount", "city", "north", "old", "grand", "blue", "stone", "port"}
	rels := []string{"area", "length", "population", "located in", "founded"}
	word := func() string { return words[rng.Intn(len(words))] }
	for len(triples) < n {
		if rng.Intn(6) == 0 {
			// One text, cut into fields three ways.
			a, b, c, d := word(), fmt.Sprint(rng.Intn(9)), rels[rng.Intn(len(rels))], word()
			triples = append(triples,
				kg.NewTriple(a+" "+b, c, d),
				kg.NewTriple(a, b+" "+c, d),
				kg.NewTriple(a, b, c+" "+d))
			ties = append(ties, strings.Join([]string{a, b, c, d}, " "))
			continue
		}
		triples = append(triples, kg.NewTriple(word()+" "+fmt.Sprint(rng.Intn(30)), rels[rng.Intn(len(rels))], word()))
	}
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
	return triples, ties
}

// incrementalQueries derives query texts from the triples: whole texts,
// texts missing a token or with one more, the tie groups' texts — whose
// members spread over old and appended rows meet at the boundary with
// equal scores — plus a zero-vector query and one sharing no token with
// any triple.
func incrementalQueries(rng *rand.Rand, triples []kg.Triple, ties []string) []string {
	qs := append([]string{"", "zzz qqq"}, ties[:min(len(ties), 6)]...)
	for range 12 {
		toks := strings.Fields(triples[rng.Intn(len(triples))].Text())
		switch rng.Intn(3) {
		case 1:
			toks = toks[1:]
		case 2:
			toks = append(toks, "grand")
		}
		qs = append(qs, strings.Join(toks, " "))
	}
	return qs
}

// TestIncrementalReplayMatchesFull is the incremental rule's property:
// over random triple lists and block sizes, as exact views and as Hybrids
// with a graph over their first rows, a one-search log recorded against a
// view of an arena's first rows is replayed against views holding more
// rows — appended in random batches since — in full, and incrementally
// past the recorded view's watermark, for k in {1, 3, 10, 25}, and the
// two replays decide alike every time. Both outcomes, lists whose k-th hit
// ties the best new hit's score, and queries whose block at the watermark
// changes mode must occur.
func TestIncrementalReplayMatchesFull(t *testing.T) {
	enc := embed.NewEncoder()
	rng := rand.New(rand.NewSource(23))
	var stood, refused, boundaryTies, flips int
	for trial := range 12 {
		store := kg.NewStore(kg.SourceWikidata)
		pool, ties := incrementalPool(rng, 80+rng.Intn(300))
		store.AddAll(pool)
		all := store.All()
		size := 16 << rng.Intn(3)
		// The graph covers the first covered rows, the recorded view the
		// first old. A one-row view is shorter than k, so the new rows'
		// hits only extend its lists.
		old := 1 + rng.Intn(len(all)-1)
		if rng.Intn(4) == 0 {
			old = 1
		}
		covered := rng.Intn(old + 1)
		arena := vecstore.NewArena(enc, size)
		arena.Append(all[:old])
		var graph *vecstore.HNSW
		if covered > 0 {
			graph = vecstore.BuildGraph(arena.View(all[:covered]), vecstore.HNSWConfig{})
		}
		sharded := func(n int) vecstore.Searcher { return arena.View(all[:n]) }
		hybrid := func(n int) vecstore.Searcher {
			return vecstore.NewHybrid(arena.View(all[:n]), graph, vecstore.HybridOptions{})
		}
		// The later views: every batch of the rest appended, in random
		// lengths.
		var lengths []int
		for n := old; n < len(all); {
			next := min(len(all), n+1+rng.Intn(max(1, (len(all)-old)/3)))
			arena.Append(all[n:next])
			n = next
			lengths = append(lengths, n)
		}
		views := map[string]func(int) vecstore.Searcher{
			"Sharded": sharded,
			fmt.Sprintf("Hybrid(graph over %d)", covered): hybrid,
		}
		queries := append(incrementalQueries(rng, all, ties), all[0].Text())
		for name, of := range views {
			recorded := of(old)
			for _, n := range lengths {
				view := of(n)
				added, ok := view.(segmented).Since(recorded.(segmented).Token())
				if !ok {
					t.Fatalf("trial %d %s at %d rows: the view is not past the recorded view's watermark", trial, name, n)
				}
				for _, k := range []int{1, 3, 10, 25} {
					for _, q := range queries {
						rec := &recorder{}
						recordingSearcher{recorded, rec}.BatchSearchWith(enc.Encode, []string{q}, k)
						reads := &Reads{encode: enc.Encode, ops: rec.buf}
						if !reads.replay(store, recorded, nil) {
							t.Fatalf("trial %d %s k=%d %q: the log does not replay against its own view", trial, name, k, q)
						}
						full, incremental := reads.replay(store, view, nil), reads.replay(store, view, added)
						if full != incremental {
							t.Fatalf("trial %d %s at %d rows k=%d %q: full replay %v, incremental %v", trial, name, n, k, q, full, incremental)
						}
						if full {
							stood++
						} else {
							refused++
						}
						logged := recorded.BatchSearchWith(enc.Encode, []string{q}, k)[0]
						fresh, flipped := added.BatchSearchWith(enc.Encode, []string{q}, k)
						if len(logged) == k && len(fresh[0]) > 0 && logged[k-1].Score == fresh[0][0].Score {
							boundaryTies++
						}
						if flipped[0] {
							flips++
						}
					}
				}
			}
		}
	}
	t.Logf("%d logs stood, %d were refused, %d at a boundary tie, %d with a mode change at the watermark", stood, refused, boundaryTies, flips)
	if stood == 0 || refused == 0 || boundaryTies == 0 || flips == 0 {
		t.Fatalf("the cases exercised too little: %d stood, %d refused, %d boundary ties, %d mode changes", stood, refused, boundaryTies, flips)
	}
}
