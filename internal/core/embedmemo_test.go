package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/embed"
)

func TestEmbedMemoHitsOnRepeat(t *testing.T) {
	memo := NewMemo(embed.NewEncoder(), 0)
	v1 := memo.Encode("<China> <population> <1443497378>")
	v2 := memo.Encode("<China> <population> <1443497378>")
	if v1 != v2 {
		t.Fatal("memoised vector differs from the original")
	}
	s := memo.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Size != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / size 1", s)
	}
	// The memoised vector must equal a fresh encode.
	if want := embed.NewEncoder().Encode("<China> <population> <1443497378>"); v1 != want {
		t.Fatal("memoised vector differs from a direct encode")
	}
}

func TestEmbedMemoResetWhenFull(t *testing.T) {
	memo := NewMemo(embed.NewEncoder(), 4)
	for i := 0; i < 10; i++ {
		memo.Encode(fmt.Sprintf("text %d", i))
	}
	s := memo.Stats()
	if s.Resets == 0 {
		t.Fatalf("expected at least one reset, stats %+v", s)
	}
	if s.Size > 4 {
		t.Fatalf("memo exceeded its bound: %+v", s)
	}
}

// TestEmbedMemoConcurrent hammers one memo from 32 goroutines over an
// overlapping text space; run with -race.
func TestEmbedMemoConcurrent(t *testing.T) {
	memo := NewMemo(embed.NewEncoder(), 64)
	reference := embed.NewEncoder()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				text := fmt.Sprintf("triple surface %d", (g+i)%40)
				if got, want := memo.Encode(text), reference.Encode(text); got != want {
					t.Errorf("memo returned a wrong vector for %q", text)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPipelineMemoWarmsAcrossQuestions proves the session-level memo: a
// second identical semantic query encodes nothing new.
func TestPipelineMemoWarmsAcrossQuestions(t *testing.T) {
	client := &fakeClient{
		pseudo: "```\nCREATE (c:Country {name: 'China'})-[:POPULATION]->(v:Value {name: '1400000000'})\n```",
	}
	p := newTestPipeline(t, client)
	gp, err := p.GeneratePseudoGraph(context.Background(), "What is the population of China?", nil)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Len() == 0 {
		t.Fatal("expected a pseudo-graph")
	}
	p.QueryAndPrune(gp, nil)
	after1 := p.memo.Stats()
	if after1.Misses == 0 {
		t.Fatal("first run should populate the memo")
	}
	p.QueryAndPrune(gp, nil)
	after2 := p.memo.Stats()
	if after2.Misses != after1.Misses {
		t.Fatalf("second identical run re-encoded: misses %d -> %d", after1.Misses, after2.Misses)
	}
	if after2.Hits <= after1.Hits {
		t.Fatalf("second identical run should hit the memo: hits %d -> %d", after1.Hits, after2.Hits)
	}
}
