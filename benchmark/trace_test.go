package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/core/exec"
)

// A synthetic request: the serve stack holds the method's run, which holds
// two stages; the first stage holds an LLM call, the second a batch search
// with two overlapping embeddings and a KG read. Request 2 is a cache hit.
func syntheticSpans() []span {
	return []span{
		{Req: 1, ID: 0, Name: spanStack, Start: 0, End: 1000},
		{Req: 1, ID: 1, Name: spanRun, Start: 100, End: 900},
		{Req: 1, ID: 2, Name: spanStagePrefix + "pseudo-graph", Start: 110, End: 300},
		{Req: 1, ID: 3, Name: spanLLM, Start: 120, End: 280},
		{Req: 1, ID: 4, Name: spanStagePrefix + "retrieve-prune", Start: 300, End: 880},
		{Req: 1, ID: 5, Name: spanBatchSearch, Start: 320, End: 700},
		{Req: 1, ID: 6, Name: spanEmbed, Start: 330, End: 400},
		{Req: 1, ID: 7, Name: spanEmbed, Start: 380, End: 450},
		{Req: 1, ID: 8, Name: spanKGRead, Start: 710, End: 730},
		{Req: 2, ID: 9, Name: spanStack, Start: 2000, End: 2010},
	}
}

func TestNestAssignsTheInnermostEnclosingLayer(t *testing.T) {
	spans := syntheticSpans()
	if bad, _ := nest(spans); bad != 0 {
		t.Fatalf("nest reported %d malformed span(s) in a well-formed tree", bad)
	}
	want := map[int]int{0: -1, 1: 0, 2: 1, 3: 2, 4: 1, 5: 4, 6: 5, 7: 5, 8: 4, 9: -1}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d (%s): parent %d, want %d", s.ID, s.Name, s.Parent, want[s.ID])
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := syntheticSpans()
	nest(spans)
	self := selfTimes(spans)
	want := map[int]int64{
		0: 200,             // 1000 − run 800
		1: 800 - 190 - 580, // run − the two stages
		2: 190 - 160,       // stage − its LLM call
		3: 160,
		4: 580 - 380 - 20, // stage − batch search − kg read
		5: 380 - 120,      // embeddings cover [330,450): overlap counted once
		6: 70,
		7: 70,
		8: 20,
		9: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	var total int64
	for _, s := range spans {
		if s.Req == 1 && s.Name != spanEmbed {
			total += self[s.ID]
		}
	}
	// Self times of a request's non-overlapping layers add up to its wall
	// time, less the embeddings' own (overlapping) 120.
	if total != 1000-120 {
		t.Errorf("self times sum to %d, want 880", total)
	}
}

func TestNestReportsASpanOutsideItsLayer(t *testing.T) {
	spans := syntheticSpans()
	spans[3].End = 310 // the LLM call now straddles the boundary between the two stages
	if bad, first := nest(spans); bad != 1 || first < 0 {
		t.Errorf("a span straddling two stages: nest reported %d malformed, want 1", bad)
	}
	spans = syntheticSpans()
	spans[8].Start, spans[8].End = 1500, 1600 // a KG read after its request ended
	if bad, first := nest(spans); bad != 1 || first < 0 {
		t.Errorf("a span outside its request: nest reported %d malformed, want 1", bad)
	}
}

func TestLedgerCountsHitsAndRuns(t *testing.T) {
	spans := syntheticSpans()
	nest(spans)
	out := ledger(spans, selfTimes(spans), map[string]int64{"llm.calls": 1, "vecstore.queries": 2})
	if got := out["serve.hit_path_us"]; got != 0.01 {
		t.Errorf("serve.hit_path_us = %v, want 0.01 (the one 10 ns hit)", got)
	}
	if got, want := out["core.stage.retrieve_prune_us"], 0.58/tracedRequests; got != want {
		t.Errorf("core.stage.retrieve_prune_us = %v, want %v", got, want)
	}
	if got, want := out["vecstore.search_us_per_query"], 0.38/2; got != want {
		t.Errorf("vecstore.search_us_per_query = %v, want %v", got, want)
	}
}

func TestStageSpanStartsNoLaterThanItsFirstChild(t *testing.T) {
	rec := newRecorder()
	rec.t0 = rec.t0.Add(-time.Second) // the spans below lie in the recent past
	rec.begin(1)
	observe := exec.ObserverFrom(rec.observeStages(context.Background()))

	// The stage really ran for 1 ms and called the LLM 10 µs in, but the
	// observer fires 500 µs late: end − latency would start the stage
	// after its own child.
	now := time.Now()
	child := now.Add(-1490 * time.Microsecond)
	rec.add(spanLLM, child, child.Add(100*time.Microsecond))
	observe(exec.Span{Stage: "pseudo-graph", Latency: time.Millisecond})
	// The next stage made no calls and keeps end − latency.
	observe(exec.Span{Stage: "retrieve-prune", Latency: time.Nanosecond})

	if bad, _ := nest(rec.spans); bad != 0 {
		t.Fatalf("%d malformed span(s): %+v", bad, rec.spans)
	}
	llm, stage, next := rec.spans[0], rec.spans[1], rec.spans[2]
	if stage.Start != llm.Start {
		t.Errorf("late-observed stage starts at %d, want its first child's start %d", stage.Start, llm.Start)
	}
	if got := next.dur(); got != 1 {
		t.Errorf("on-time stage lasts %d ns, want its latency of 1 ns: the earlier stage's child must not reach it", got)
	}
}
