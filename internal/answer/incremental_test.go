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

// TestIncrementalReplayMatchesFull is the incremental rule's property:
// over random segment sequences, as Sharded views and as Hybrids with a
// graph over their first segments, a one-search log recorded against a
// view is replayed against the view with random segments appended — in
// full, and incrementally over the appended segments — for k in {1, 3,
// 10, 25}, and the two replays decide alike every time. Both outcomes,
// and lists whose k-th hit ties the best appended hit's score, must occur.
func TestIncrementalReplayMatchesFull(t *testing.T) {
	enc := embed.NewEncoder()
	rng := rand.New(rand.NewSource(23))
	var stood, refused, boundaryTies int
	for trial := range 12 {
		store := kg.NewStore(kg.SourceWikidata)
		pool, ties := incrementalPool(rng, 80+rng.Intn(300))
		store.AddAll(pool)
		all := store.All()
		// At least two segments, so something can be appended. A one-row
		// first segment makes an old view shorter than k whose list the
		// appended segments' hits only extend.
		var segs []*vecstore.Index
		for lo := 0; lo < len(all); {
			hi := min(len(all), lo+1+rng.Intn(len(all)/2))
			if lo == 0 && rng.Intn(3) == 0 {
				hi = 1
			}
			segs = append(segs, vecstore.BuildTriples(enc, all[lo:hi]))
			lo = hi
		}
		if len(segs) < 2 {
			continue
		}
		old := 1 + rng.Intn(len(segs)-1)
		if segs[0].Len() == 1 {
			old = 1
		}
		covered := rng.Intn(old + 1)
		var graph *vecstore.HNSW
		if covered > 0 {
			graph = vecstore.BuildGraph(enc, segs[:covered], vecstore.HNSWConfig{})
		}
		memo := &vecstore.MemoCounters{}
		views := []struct {
			name     string
			old, new vecstore.Searcher
		}{
			{"Sharded", vecstore.Compose(enc, segs[:old]...).WithMemo(memo), vecstore.Compose(enc, segs...).WithMemo(memo)},
			{fmt.Sprintf("Hybrid(graph over %d)", covered),
				vecstore.ComposeHybrid(enc, graph, segs[:old], vecstore.HybridOptions{Memo: memo}),
				vecstore.ComposeHybrid(enc, graph, segs, vecstore.HybridOptions{Memo: memo})},
		}
		queries := append(incrementalQueries(rng, all, ties), all[0].Text())
		for _, v := range views {
			added, ok := v.new.(segmented).Since(v.old.(segmented).Token())
			if !ok {
				t.Fatalf("trial %d %s: appending %d of %d segments does not extend the view", trial, v.name, len(segs)-old, len(segs))
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
						t.Fatalf("trial %d %s k=%d %q: the log does not replay against its own view", trial, v.name, k, q)
					}
					full, incremental := reads.replay(store, v.new, nil), reads.replay(store, v.new, added)
					if full != incremental {
						t.Fatalf("trial %d %s k=%d %q: full replay %v, incremental %v", trial, v.name, k, q, full, incremental)
					}
					if full {
						stood++
					} else {
						refused++
					}
					logged, fresh := v.old.Search(q, k), added.Search(q, k)
					if len(logged) == k && len(fresh) > 0 && logged[k-1].Score == fresh[0].Score {
						boundaryTies++
					}
				}
			}
		}
	}
	t.Logf("%d logs stood, %d were refused, %d at a boundary tie", stood, refused, boundaryTies)
	if stood == 0 || refused == 0 || boundaryTies == 0 {
		t.Fatalf("the cases exercised too little: %d stood, %d refused, %d boundary ties", stood, refused, boundaryTies)
	}
}
