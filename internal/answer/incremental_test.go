package answer

import (
	"fmt"
	"math/rand"
	"slices"
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
// members spread over old and appended segments meet at the boundary with
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

// randomCut cuts triples into segments of random lengths.
func randomCut(rng *rand.Rand, enc *embed.Encoder, triples []kg.Triple) []*vecstore.Index {
	var segs []*vecstore.Index
	for lo := 0; lo < len(triples); {
		hi := min(len(triples), lo+1+rng.Intn(max(1, len(triples)/3)))
		segs = append(segs, vecstore.BuildTriples(enc, triples[lo:hi]))
		lo = hi
	}
	return segs
}

// recuts returns the segment layouts a substrate can hold the rows rest
// in after holding their first old as segs: segs with new segments
// appended (ingests), then joined (coalescing), re-sharded (compaction),
// and rebuilt as a recovery does (a checkpoint's aligned segments, then
// per-record segments for the WAL tail).
func recuts(rng *rand.Rand, enc *embed.Encoder, segs []*vecstore.Index, rest []kg.Triple, old, size int) map[string][]*vecstore.Index {
	appended := append(slices.Clip(segs), randomCut(rng, enc, rest[old:])...)
	from := rng.Intn(len(appended))
	checkpoint := rng.Intn(len(rest) + 1)
	return map[string][]*vecstore.Index{
		"appended":  appended,
		"coalesced": append(slices.Clip(appended[:from]), vecstore.Concat(enc, appended[from:]...)),
		"compacted": vecstore.Reshard(enc, rest, size, segs),
		"recovered": append(vecstore.BuildShards(enc, rest[:checkpoint], size), randomCut(rng, enc, rest[checkpoint:])...),
	}
}

// TestIncrementalReplayMatchesFull is the incremental rule's property:
// over random triple lists and block sizes, as Sharded views and as
// Hybrids with a graph over their first rows, a one-search log recorded
// against a view is replayed against a view holding more rows — appended,
// coalesced, compacted or recovered into other segments — in full, and
// incrementally past the recorded view's watermark, for k in {1, 3, 10,
// 25}, and the two replays decide alike every time. Both outcomes, lists
// whose k-th hit ties the best new hit's score, and queries whose block at
// the watermark changes mode must occur.
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
		var graphSegs []*vecstore.Index
		var graph *vecstore.HNSW
		if covered > 0 {
			graphSegs = vecstore.BuildShards(enc, all[:covered], size)
			graph = vecstore.BuildGraph(enc, graphSegs, vecstore.HNSWConfig{})
		}
		sharded := func(segs []*vecstore.Index) vecstore.Searcher {
			return vecstore.Compose(enc, size, segs...)
		}
		hybrid := func(segs []*vecstore.Index) vecstore.Searcher {
			return vecstore.ComposeHybrid(enc, graph, size, append(slices.Clip(graphSegs), segs...), vecstore.HybridOptions{})
		}
		oldSegs := randomCut(rng, enc, all[:old])
		oldTail := randomCut(rng, enc, all[covered:old])
		views := map[string]struct {
			old  vecstore.Searcher
			news map[string][]*vecstore.Index
			of   func([]*vecstore.Index) vecstore.Searcher
		}{
			"Sharded": {sharded(oldSegs), recuts(rng, enc, oldSegs, all, old, size), sharded},
			fmt.Sprintf("Hybrid(graph over %d)", covered): {hybrid(oldTail), recuts(rng, enc, oldTail, all[covered:], old-covered, size), hybrid},
		}
		queries := append(incrementalQueries(rng, all, ties), all[0].Text())
		for name, v := range views {
			for layout, segs := range v.news {
				view := v.of(segs)
				added, ok := view.(segmented).Since(v.old.(segmented).Token())
				if !ok {
					t.Fatalf("trial %d %s %s: the view is not past the recorded view's watermark", trial, name, layout)
				}
				for _, k := range []int{1, 3, 10, 25} {
					for i, q := range queries {
						rec := &recorder{}
						if i%2 == 0 {
							recordingSearcher{v.old, rec}.Search(q, k)
						} else {
							recordingSearcher{v.old, rec}.BatchSearchWith(enc.Encode, []string{q}, k)
						}
						reads := &Reads{encode: enc.Encode, ops: rec.buf}
						if !reads.replay(store, v.old, nil) {
							t.Fatalf("trial %d %s k=%d %q: the log does not replay against its own view", trial, name, k, q)
						}
						full, incremental := reads.replay(store, view, nil), reads.replay(store, view, added)
						if full != incremental {
							t.Fatalf("trial %d %s %s k=%d %q: full replay %v, incremental %v", trial, name, layout, k, q, full, incremental)
						}
						if full {
							stood++
						} else {
							refused++
						}
						logged := v.old.Search(q, k)
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
