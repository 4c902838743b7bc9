package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/answer"
	"repro/internal/core/exec"
	"repro/internal/failure"
	"repro/internal/kg"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The answer routes: POST /v1/answer (JSON, or SSE with "Accept:
// text/event-stream") and POST /v1/batch. Answers flow through the node's
// serving stack (metrics, answer cache, singleflight), so repeated and
// concurrent-identical questions are served without re-running the
// pipeline. A reply shows a trace only when the request said
// include_trace, and every route tells the stack so (attach): a hit that
// will not show a trace neither holds nor copies one.

// --- wire types ---

// queryItem is the reusable core of an answer request, shared with batch
// items.
type queryItem struct {
	Question string   `json:"question"`
	Open     bool     `json:"open,omitempty"`
	Anchors  []string `json:"anchors,omitempty"`
	// PromptVersions pins specific prompt versions for this query only
	// (A/B testing), e.g. {"answer-graph": "2"}. Unknown names or
	// versions fail the request with class "invalid-query".
	PromptVersions map[string]string `json:"prompt_versions,omitempty"`
}

// query is the registry request for this item under a resolved method
// and model.
func (q queryItem) query(method, model string) answer.Query {
	return answer.Query{
		Text:           q.Question,
		Method:         method,
		Model:          model,
		Open:           q.Open,
		Anchors:        q.Anchors,
		PromptVersions: q.PromptVersions,
	}
}

type answerRequest struct {
	queryItem
	Method       string `json:"method,omitempty"` // default "ours"
	Model        string `json:"model,omitempty"`  // gpt3.5|gpt4
	KG           string `json:"kg,omitempty"`     // wikidata|freebase
	IncludeTrace bool   `json:"include_trace,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	// TokenBudget caps the total LLM tokens this request may spend;
	// the query's llm.Counting refuses calls past it (HTTP 429, class
	// "budget").
	TokenBudget int `json:"token_budget,omitempty"`
}

type answerResponse struct {
	Answer           string `json:"answer"`
	Method           string `json:"method"`
	Model            string `json:"model"`
	KG               string `json:"kg"`
	Epoch            uint64 `json:"epoch,omitempty"`
	LLMCalls         int    `json:"llm_calls"`
	PromptTokens     int    `json:"prompt_tokens"`
	CompletionTokens int    `json:"completion_tokens"`
	ElapsedMS        int64  `json:"elapsed_ms"`
	// PromptVersions are the exact prompt versions this run rendered
	// with — the observable half of a "prompt_versions" A/B override. It
	// is the result's map, immutable like every prompt view's
	// (appendVersions reuses the encoding of the last one it saw).
	PromptVersions map[string]string `json:"prompt_versions,omitempty"`
	// Cached marks an SSE answer event served from the answer cache (the
	// JSON path reports the same through the X-Cache header instead).
	Cached bool `json:"cached,omitempty"`
	// Trace is the run's stage spans and pipeline artefacts, shown under
	// include_trace: the fields of its trace record, named and encoded as
	// GET /v1/traces/<id> serves them.
	Trace *trace.Artefacts `json:"trace,omitempty"`
}

type batchRequest struct {
	Method      string `json:"method,omitempty"`
	Model       string `json:"model,omitempty"`
	KG          string `json:"kg,omitempty"`
	Concurrency int    `json:"concurrency,omitempty"`
	// TimeoutMS tightens the batch deadline per-item deadlines are derived
	// from (never past the operator's cap).
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
	Queries   []queryItem `json:"queries"`
}

type batchItemResponse struct {
	Index  int             `json:"index"`
	Result *answerResponse `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Class  failure.Class   `json:"class,omitempty"`
}

type batchResponse struct {
	Method    string              `json:"method"`
	Model     string              `json:"model"`
	KG        string              `json:"kg"`
	N         int                 `json:"n"`
	Failed    int                 `json:"failed"`
	ElapsedMS int64               `json:"elapsed_ms"`
	Items     []batchItemResponse `json:"items"`
}

// --- handlers ---

// deadline is -timeout tightened by a request's timeout_ms: a client may
// shorten the deadline but never loosen it past the operator's cap
// (0 = unbounded).
func (s *Server) deadline(timeoutMS int64) time.Duration {
	requested := time.Duration(timeoutMS) * time.Millisecond
	if requested > 0 && (s.cfg.Timeout == 0 || requested < s.cfg.Timeout) {
		return requested
	}
	return s.cfg.Timeout
}

// failedRun is the error body of a failed run; with a trace requested,
// the partial spans name the failing stage and its error class.
func failedRun(err error, res answer.Result, includeTrace bool) errorResponse {
	resp := errorResponse{Error: err.Error(), Class: failure.Of(err)}
	if includeTrace && res.Trace != nil {
		resp.Stages = res.Trace.Stages
	}
	return resp
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request, req answerRequest) {
	ans, model, src, err := s.resolve(req.Method, req.Model, req.KG)
	if err != nil {
		writeError(w, failure.Of(err), err)
		return
	}

	// The request's deadline rides its Info, and the node's stack arms it
	// below the cache: a hit arms no timer.
	ctx, info := attach(r.Context(), req.IncludeTrace)
	if timeout := s.deadline(req.TimeoutMS); timeout > 0 {
		info.Deadline = time.Now().Add(timeout)
	}
	q := req.query(ans.Name(), model)
	if req.TokenBudget > 0 {
		budget := req.TokenBudget // req itself stays off the heap
		q.Overrides.TokenBudget = &budget
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamAnswer(w, ctx, info, ans, q, src, req.IncludeTrace)
		return
	}
	res, err := ans.Answer(ctx, q)
	if err != nil {
		resp := failedRun(err, res, req.IncludeTrace)
		writeJSON(w, resp.Class.Status(), resp)
		return
	}
	if info.CacheUsed {
		state := "miss"
		if info.CacheHit {
			state = "hit"
		}
		w.Header().Set("X-Cache", state)
	}
	wire := toWire(res, src, req.IncludeTrace)
	writeAnswer(w, &wire)
}

// attach gives one request its serve.Info, declaring whether the reply
// will show the result's trace.
func attach(ctx context.Context, includeTrace bool) (context.Context, *serve.Info) {
	ctx, info := serve.Attach(ctx)
	info.OmitTrace = !includeTrace
	return ctx, info
}

// traceless runs every query under its own Info with the trace omitted:
// batch items, whose wire form has no trace to show.
type traceless struct{ answer.Answerer }

func (t traceless) Answer(ctx context.Context, q answer.Query) (answer.Result, error) {
	ctx, _ = attach(ctx, false)
	return t.Answerer.Answer(ctx, q)
}

// sseWriter frames server-sent events over a flushed ResponseWriter.
// Methods may drive stage graphs from worker goroutines (sampling runs),
// so every event write is serialized under the mutex.
type sseWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
	f  http.Flusher
}

func (s *sseWriter) event(name string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.write(name, data)
}

// answer writes the terminal "answer" event, encoded by appendAnswer.
func (s *sseWriter) answer(v *answerResponse) {
	data, err := appendAnswer(nil, v)
	if err != nil {
		return
	}
	s.write("answer", data)
}

func (s *sseWriter) write(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data)
	s.f.Flush()
}

// streamAnswer serves one answer as SSE: a "stage" event per completed
// pipeline stage — emitted live through the exec span observer while the
// run is still in flight — then a terminal "answer" or "error" event.
// Cache and singleflight hits execute no stages of their own, so they
// stream a single answer event. A client that disconnects mid-stream
// cancels ctx and with it the in-flight run; the terminal error event is
// then written to a dead connection and dropped, but the run's "canceled"
// class still lands in /v1/metrics through the serving stack.
func (s *Server) streamAnswer(w http.ResponseWriter, ctx context.Context, info *serve.Info, ans answer.Answerer, q answer.Query, src kg.Source, includeTrace bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, failure.Unsupported, errors.New("streaming is unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	out := &sseWriter{w: w, f: flusher}

	ctx = exec.WithSpanObserver(ctx, func(sp exec.Span) {
		out.event("stage", sp)
	})
	res, err := ans.Answer(ctx, q)
	if err != nil {
		out.event("error", failedRun(err, res, includeTrace))
		return
	}
	wire := toWire(res, src, includeTrace)
	wire.Cached = info.CacheHit
	out.answer(&wire)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, req batchRequest) {
	if len(req.Queries) == 0 {
		writeError(w, failure.InvalidQuery, errors.New("batch has no queries"))
		return
	}
	if len(req.Queries) > maxBatch {
		writeError(w, failure.InvalidQuery, fmt.Errorf("batch of %d exceeds the limit of %d", len(req.Queries), maxBatch))
		return
	}
	ans, model, src, err := s.resolve(req.Method, req.Model, req.KG)
	if err != nil {
		writeError(w, failure.Of(err), err)
		return
	}
	workers := req.Concurrency
	if workers < 1 {
		workers = s.cfg.Workers
	}
	if workers > maxConcurrency {
		workers = maxConcurrency
	}

	// Per-item deadlines derive from the batch deadline: every item gets
	// the deadline as its own clock, started when its worker picks it up —
	// the same per-request semantics /v1/answer has. A single slow item
	// times out alone (its entry reports class "deadline") instead of one
	// shared batch timer expiring and failing every item queued behind it,
	// and an item is never killed early just because the batch was large.
	// Total batch wall-clock stays bounded at ceil(N/workers) deadlines.
	opts := []answer.BatchOption{answer.Concurrency(workers)}
	if timeout := s.deadline(req.TimeoutMS); timeout > 0 {
		opts = append(opts, answer.ItemTimeout(timeout))
	}

	queries := make([]answer.Query, len(req.Queries))
	for i, q := range req.Queries {
		queries[i] = q.query(ans.Name(), model)
	}
	start := time.Now()
	items := answer.Batch(r.Context(), traceless{ans}, queries, opts...)

	resp := batchResponse{
		Method:    ans.Name(),
		Model:     model,
		KG:        src.String(),
		N:         len(items),
		ElapsedMS: time.Since(start).Milliseconds(),
	}
	for _, item := range items {
		wireItem := batchItemResponse{Index: item.Index}
		if item.Err != nil {
			resp.Failed++
			wireItem.Error = item.Err.Error()
			wireItem.Class = item.Class
		} else {
			wire := toWire(item.Result, src, false)
			wireItem.Result = &wire
		}
		resp.Items = append(resp.Items, wireItem)
	}
	writeJSON(w, http.StatusOK, resp)
}

// toWire converts a Result to its JSON form.
func toWire(res answer.Result, src kg.Source, includeTrace bool) answerResponse {
	out := answerResponse{
		Answer:           res.Answer,
		Method:           res.Method,
		Model:            res.Model,
		KG:               src.String(),
		Epoch:            res.Epoch,
		LLMCalls:         res.LLMCalls,
		PromptTokens:     res.PromptTokens,
		CompletionTokens: res.CompletionTokens,
		ElapsedMS:        res.Elapsed.Milliseconds(),
		PromptVersions:   res.PromptVersions,
	}
	if includeTrace && res.Trace != nil {
		a := trace.ArtefactsOf(res.Trace)
		out.Trace = &a
	}
	return out
}
