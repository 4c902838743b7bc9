package serve

import (
	"context"
	"math"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/answer"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/substrate"
	"repro/internal/vecstore"
)

// doctor selects what a doctoredSubstrate falsifies in the top hit of
// every search while it is on.
type doctor int32

const (
	honest   doctor = iota
	scoreBit        // flip the lowest bit of its score
	tripleID        // name it by its neighbour's ID
)

// doctoredSubstrate serves a manager's snapshots, while mode is set,
// through an index that falsifies each search's top hit — so a run filled
// then records a log one bit or one ID away from the truth — and the
// manager's own index otherwise.
type doctoredSubstrate struct {
	mgr  *substrate.Manager
	mode atomic.Int32
}

func (d *doctoredSubstrate) Resolve() (kg.Reader, vecstore.Searcher, uint64) {
	store, index, epoch := d.mgr.Resolve()
	if mode := doctor(d.mode.Load()); mode != honest {
		index = doctoredIndex{index, mode}
	}
	return store, index, epoch
}

type doctoredIndex struct {
	vecstore.Searcher
	mode doctor
}

func (x doctoredIndex) falsify(hits []vecstore.Hit) {
	if len(hits) == 0 {
		return
	}
	switch x.mode {
	case scoreBit:
		hits[0].Score = math.Float64frombits(math.Float64bits(hits[0].Score) ^ 1)
	case tripleID:
		hits[0].Triple.ID ^= 1
	}
}

func (x doctoredIndex) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]vecstore.Hit {
	per := x.Searcher.BatchSearchWith(encode, queries, k)
	for _, hits := range per {
		x.falsify(hits)
	}
	return per
}

// ragOver is the registry's "rag" method over sub, behind a cache whose
// scope is the substrate epoch.
func ragOver(t *testing.T, sub answer.Substrate, mgr *substrate.Manager, cache *Cache) answer.Answerer {
	t.Helper()
	client := llm.NewScripted().On(prompts.TaskGraphQA, "{Beta}")
	ans, err := answer.New("rag", answer.Deps{Client: client, Substrate: sub, Encoder: embed.NewEncoder()})
	if err != nil {
		t.Fatal(err)
	}
	return Stack(ans, WithCache(cache, func() string { return strconv.FormatUint(mgr.Epoch(), 10) }))
}

// smallStore holds more than RAG's five retrievals' worth of triples
// about Alpha, so its question's top 5 never reaches unrelated rows.
func smallStore() *kg.Store {
	st := kg.NewStore(kg.SourceWikidata)
	st.AddAll([]kg.Triple{
		kg.NewTriple("Alpha", "knows", "Beta"),
		kg.NewTriple("Alpha", "knows", "Gamma"),
		kg.NewTriple("Alpha", "born in", "Delta"),
		kg.NewTriple("Alpha", "works at", "Omega"),
		kg.NewTriple("Alpha", "likes", "Epsilon"),
		kg.NewTriple("Alpha", "colour", "blue"),
		kg.NewTriple("Gamma", "knows", "Beta"),
		kg.NewTriple("Epsilon", "colour", "green"),
	})
	return st
}

// TestRevalidationRefusesDoctoredLog is the gate on revalidation's
// exactness: an entry whose log was recorded one score bit, or one triple
// ID, away from what the substrate returns is refused after an unrelated
// ingest moves the scope — while the honest entry for the same question
// revalidates across the same ingest. The ingest only appends rows to the
// index view, the case the incremental rule searches past the watermark
// alone. The honest fill searched the arena view itself and carries its
// token, so its first replay is already incremental; the doctored index
// is no arena view, its fill carries no token, and its first replay is a
// full one, which refuses it. The fill that replaces it is honest, and
// the next ingest's replay of it is incremental.
func TestRevalidationRefusesDoctoredLog(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode doctor
		hit  bool
	}{
		{"honest", honest, true},
		{"score bit", scoreBit, false},
		{"triple ID", tripleID, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mgr := substrate.NewManager(embed.NewEncoder(), smallStore(), substrate.Config{})
			sub := &doctoredSubstrate{mgr: mgr}
			cache := NewCache(CacheConfig{Size: 8})
			ans := ragOver(t, sub, mgr, cache)
			q := answer.Query{Text: "Who does Alpha know?"}

			sub.mode.Store(int32(tc.mode))
			if _, err := ans.Answer(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			sub.mode.Store(int32(honest))
			filled := mgr.Current().Index.(*vecstore.Sharded).Token()
			if _, err := mgr.Ingest([]kg.Triple{kg.NewTriple("Zeta", "colour", "red")}); err != nil {
				t.Fatal(err)
			}
			if _, appended := mgr.Current().Index.(*vecstore.Sharded).Since(filled); !appended {
				t.Fatal("the ingest did not just append rows to the index view")
			}
			ctx, info := Attach(context.Background())
			res, err := ans.Answer(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			want := CacheStats{Revalidated: 1}
			if !tc.hit {
				want = CacheStats{StaleMisses: 1}
			}
			if st := cache.Stats(); info.CacheHit != tc.hit || st.Revalidated != want.Revalidated || st.StaleMisses != want.StaleMisses {
				t.Fatalf("hit %v, %+v; want hit %v", info.CacheHit, st, tc.hit)
			}
			if res.Epoch != 2 {
				t.Fatalf("reply epoch %d, want the live epoch 2", res.Epoch)
			}
			if st := cache.Stats(); st.RevalidatedIncremental != want.Revalidated {
				t.Fatalf("first replays: %+v, want only the honest fill's, and it incremental", st)
			}
			if _, err := mgr.Ingest([]kg.Triple{kg.NewTriple("Zeta", "colour", "blue")}); err != nil {
				t.Fatal(err)
			}
			if _, err := ans.Answer(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			// The honest entry was replayed once; the refused one was
			// replaced by an honest fill, whose first replay this is.
			if st := cache.Stats(); st.RevalidatedIncremental != want.Revalidated+1 || st.Revalidated != want.Revalidated+1 {
				t.Fatalf("after a second ingest: %+v, want %d revalidation(s), all incremental", st, want.Revalidated+1)
			}
		})
	}
}

// TestRevalidationCountersStayZeroWithoutScopeChange: entries hit under
// the scope they were filled in never replay, and stub results, which
// carry no read log, are stale misses once the scope moves.
func TestRevalidationCountersStayZeroWithoutScopeChange(t *testing.T) {
	var epoch atomic.Uint64
	stub := &stubAnswerer{name: "stub"}
	cache := NewCache(CacheConfig{Size: 8})
	stack := Stack(stub, WithCache(cache, func() string { return strconv.FormatUint(epoch.Load(), 10) }))
	q := answer.Query{Text: "q?"}
	for i := 0; i < 3; i++ {
		if _, err := stack.Answer(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Hits != 2 || st.Revalidated != 0 || st.StaleMisses != 0 {
		t.Fatalf("same scope: %+v", st)
	}
	epoch.Store(1)
	if _, err := stack.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Revalidated != 0 || st.StaleMisses != 1 || st.Size != 1 || stub.runs.Load() != 2 {
		t.Fatalf("a log-less entry across a scope change: %+v, %d runs", st, stub.runs.Load())
	}
}
