package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/core/exec"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/vecstore"
)

// This file is the layer ledger's tracer. Spans are recorded from the
// benchmark's own files, around the calls into each layer — decorators on
// llm.Client, answer.Substrate (→ kg.Reader, vecstore.Searcher) and the
// Answerer above and below the serve stack, plus the pipeline's stage
// spans taken from exec's span observer. Spans are kept in memory and
// written out when the pass ends; spans inside the program are a later
// change.

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder was made. Parent is the ID of the enclosing span, -1 for a
// request's root; nest assigns it.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names. A request's tree nests by level: the serve stack holds the
// registry method's run, which holds the pipeline stages, which hold the
// calls into llm, vecstore and kg; the embedding of each query happens
// under the batch search that asked for it. An ingest is its own root.
const (
	spanStack       = "serve.stack"
	spanRun         = "answer.run"
	spanStagePrefix = "core.stage."
	spanLLM         = "llm.complete"
	spanBatchSearch = "vecstore.batch_search"
	spanKGRead      = "kg.read"
	spanEmbed       = "embed.encode"
	spanIngest      = "substrate.ingest"
)

// level is a span's depth in the static layer hierarchy.
func level(name string) int {
	switch {
	case name == spanStack || name == spanIngest:
		return 0
	case name == spanRun:
		return 1
	case strings.HasPrefix(name, spanStagePrefix):
		return 2
	case name == spanEmbed:
		return 4
	default:
		return 3
	}
}

// recorder collects spans and counts for one traced pass. The driver sets
// the request ID (from 1) before each request, and whatever runs before
// the first begin — a cache warm-up — is ignored. Decorators may record
// from several goroutines: a batch search embeds its queries concurrently.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	req    int
	spans  []span
	counts map[string]int64
	// firstChild is the earliest start of a call a stage made into a
	// lower layer since the last stage was observed (0 = none yet).
	firstChild int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string]int64{}}
}

func (r *recorder) begin(req int) {
	r.mu.Lock()
	r.req, r.firstChild = req, 0
	r.mu.Unlock()
}

func (r *recorder) add(name string, start, end time.Time) {
	r.addNS(name, int64(start.Sub(r.t0)), int64(end.Sub(r.t0)))
}

func (r *recorder) addNS(name string, start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.req == 0 {
		return
	}
	if level(name) == 3 && (r.firstChild == 0 || start < r.firstChild) {
		r.firstChild = start
	}
	r.spans = append(r.spans, span{Req: r.req, ID: len(r.spans), Parent: -1, Name: name, Start: start, End: end})
}

func (r *recorder) count(name string, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.req > 0 {
		r.counts[name] += int64(n)
	}
}

// observeStages returns a context whose exec span observer records each
// pipeline stage as it completes. The observer runs on the run's own
// goroutine right after the stage, so its "now" is the stage's end and
// now − latency its start — except that "now" trails the true end by the
// engine's bookkeeping (and, rarely, a preemption), which would start the
// span that much late. A stage cannot have started after its own first
// call into a lower layer, so the start is pulled back to that call when
// the clock reading came late.
func (r *recorder) observeStages(ctx context.Context) context.Context {
	return exec.WithSpanObserver(ctx, func(sp exec.Span) {
		end := time.Now()
		r.mu.Lock()
		start := int64(end.Add(-sp.Latency).Sub(r.t0))
		if r.firstChild > 0 && r.firstChild < start {
			start = r.firstChild
		}
		r.firstChild = 0
		r.mu.Unlock()
		r.addNS(spanStagePrefix+sp.Stage, start, int64(end.Sub(r.t0)))
		if sp.Stage == core.StagePseudo {
			r.count("core.pseudo_triples", sp.OutputSize)
		}
	})
}

// --- decorators ---

type tracedClient struct {
	llm.Client
	rec *recorder
}

func (c tracedClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	start := time.Now()
	resp, err := c.Client.Complete(ctx, req)
	c.rec.add(spanLLM, start, time.Now())
	c.rec.count("llm.calls", 1)
	c.rec.count("llm.prompt_tokens", resp.Usage.PromptTokens)
	c.rec.count("llm.completion_tokens", resp.Usage.CompletionTokens)
	return resp, err
}

type tracedSubstrate struct {
	inner answer.Substrate
	rec   *recorder
}

func (s tracedSubstrate) Resolve() (kg.Reader, vecstore.Searcher, uint64) {
	store, index, epoch := s.inner.Resolve()
	return tracedReader{store, s.rec}, tracedSearcher{index, s.rec}, epoch
}

// tracedReader times the two reads the PG&AKV pipeline makes; every other
// kg.Reader method passes through untimed.
type tracedReader struct {
	kg.Reader
	rec *recorder
}

func (t tracedReader) Subject(s string) []kg.Triple {
	start := time.Now()
	out := t.Reader.Subject(s)
	t.rec.add(spanKGRead, start, time.Now())
	return out
}

func (t tracedReader) HasSubject(s string) bool {
	start := time.Now()
	out := t.Reader.HasSubject(s)
	t.rec.add(spanKGRead, start, time.Now())
	return out
}

// tracedSearcher times the pipeline's semantic query and, inside it, each
// query's embedding (the memo lookup included — the memo is the embed
// layer's front).
type tracedSearcher struct {
	vecstore.Searcher
	rec *recorder
}

func (t tracedSearcher) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]vecstore.Hit {
	start := time.Now()
	out := t.Searcher.BatchSearchWith(func(q string) embed.Vector {
		s := time.Now()
		v := encode(q)
		t.rec.add(spanEmbed, s, time.Now())
		return v
	}, queries, k)
	t.rec.add(spanBatchSearch, start, time.Now())
	t.rec.count("vecstore.queries", len(queries))
	return out
}

type tracedAnswerer struct {
	answer.Answerer
	name string
	rec  *recorder
}

func (a tracedAnswerer) Answer(ctx context.Context, q answer.Query) (answer.Result, error) {
	start := time.Now()
	res, err := a.Answerer.Answer(ctx, q)
	a.rec.add(a.name, start, time.Now())
	return res, err
}

// tracingHooks wraps every layer of a node with the recorder.
func tracingHooks(rec *recorder) hooks {
	return hooks{
		client:    func(c llm.Client) llm.Client { return tracedClient{c, rec} },
		substrate: func(s answer.Substrate) answer.Substrate { return tracedSubstrate{s, rec} },
		inner:     func(a answer.Answerer) answer.Answerer { return tracedAnswerer{a, spanRun, rec} },
		outer:     func(a answer.Answerer) answer.Answerer { return tracedAnswerer{a, spanStack, rec} },
	}
}

// --- span-tree arithmetic ---

// nest assigns each span its parent: the span of the nearest lower level,
// in the same request, whose interval contains it. It returns the number
// of malformed spans: those that a lower-level span overlaps without
// containing (layers must nest or be disjoint), and non-roots that no
// lower-level span contains although their request has some. firstBad is
// the index of one of them, -1 when there is none.
func nest(spans []span) (malformed, firstBad int) {
	firstBad = -1
	byReq := map[int][]int{}
	for i := range spans {
		spans[i].Parent = -1
		byReq[spans[i].Req] = append(byReq[spans[i].Req], i)
	}
	for _, idx := range byReq {
		for _, i := range idx {
			s := &spans[i]
			lv := level(s.Name)
			if lv == 0 {
				continue
			}
			best, bestLv, lower, torn := -1, -1, false, false
			for _, j := range idx {
				p := spans[j]
				plv := level(p.Name)
				if plv >= lv {
					continue
				}
				lower = true
				switch {
				case p.Start <= s.Start && s.End <= p.End:
					if plv > bestLv {
						best, bestLv = j, plv
					}
				case p.Start < s.End && s.Start < p.End:
					torn = true
				}
			}
			if best >= 0 {
				s.Parent = spans[best].ID
			}
			if torn || (best < 0 && lower) {
				malformed++
				if firstBad < 0 || i < firstBad {
					firstBad = i
				}
			}
		}
	}
	return malformed, firstBad
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval its children cover (children may overlap each other: a
// batch search embeds queries concurrently). nest must have run.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			start, end := max(k.Start, edge), min(k.End, s.End)
			if end > start {
				covered += end - start
				edge = end
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
