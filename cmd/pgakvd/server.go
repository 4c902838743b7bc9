package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/answer"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/core/exec"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/substrate"
	"repro/internal/trace"
)

// Server exposes the answer registry over HTTP JSON. Routes:
//
//	GET  /healthz             liveness probe
//	GET  /v1/methods          registered methods, models and KG sources
//	GET  /v1/metrics          per-method serving metrics + cache/dedup/substrate stats
//	GET  /v1/traces           recent recorded request traces (-trace-dir servers)
//	GET  /v1/traces/{id}      one full trace record
//	POST /v1/answer           answer one question (X-Cache: hit|miss when caching)
//	POST /v1/batch            answer many questions with a worker pool
//	POST /v1/ingest           add triples to a KG source's live delta
//	POST /v1/snapshot/compact fold a source's delta into a new frozen base
//	POST /v1/snapshot/checkpoint persist a source's snapshot (durable servers)
//
// Every handler honours the request context: a disconnecting client or an
// expiring per-request timeout cancels the in-flight pipeline run. Answers
// flow through the environment's serving stack (metrics, answer cache,
// singleflight), so repeated and concurrent-identical questions are served
// without re-running the pipeline. /v1/answer runs on the LLM scheduler's
// interactive lane, /v1/batch on the batch lane; batch items get per-item
// deadlines derived from the batch deadline so one slow item cannot starve
// the rest. Oversized POST bodies are refused with 413.
//
// Admission control guards /v1/answer and /v1/batch when configured:
// requests pass a per-client token bucket (keyed by X-API-Key, falling
// back to the remote address) and a bounded in-flight/queue gate before
// the body is even decoded, so an overloaded or abusive client costs a
// fast 429 with a Retry-After header — never a pipeline run or an LLM
// call. /v1/metrics reports the admitted/shed/limited counters and live
// queue depth.
//
// Streaming: POST /v1/answer with "Accept: text/event-stream" serves the
// run as SSE — one "stage" event per completed pipeline stage (emitted
// live via the exec span observer), then a final "answer" event with the
// normal response body, or an "error" event. A cache or singleflight hit
// streams just the answer event. Disconnecting mid-stream cancels the
// in-flight run through the request context.
//
// Ingest and compaction swap substrate snapshots atomically: queries in
// flight keep the snapshot they resolved, new queries see the new epoch,
// and the answer cache's epoch-scoped keys guarantee no pre-swap answer is
// ever served post-swap.
type Server struct {
	env *bench.Env
	// timeout caps each /v1/answer run and is the batch deadline per-item
	// deadlines are derived from (0 = unbounded).
	timeout time.Duration
	// maxBatch bounds /v1/batch size.
	maxBatch int
	// maxConcurrency bounds the per-batch worker pool.
	maxConcurrency int
	// maxIngest bounds a single /v1/ingest batch.
	maxIngest int
	// maxBody bounds every POST body; oversized requests get 413 before
	// the decoder buffers them.
	maxBody int64
	// admit guards /v1/answer and /v1/batch with per-client rate limiting
	// and queue-depth load shedding; nil admits everything.
	admit *serve.Admission
	// replicaOf is the primary's base URL when this node is a read
	// replica; local ingests are redirected there.
	replicaOf string
	// appliers are the per-source stream-apply loops on a replica
	// (surfaced in /v1/metrics).
	appliers []*repl.Applier
	// replSrc serves the /v1/repl/* endpoints on durable nodes.
	replSrc *repl.Source
}

// NewServer wraps an assembled bench environment.
func NewServer(env *bench.Env, timeout time.Duration) *Server {
	return &Server{env: env, timeout: timeout, maxBatch: 256, maxConcurrency: 32, maxIngest: 10000, maxBody: maxBodyBytes}
}

// WithAdmission installs the admission controller guarding the answer
// routes and returns the server for chaining. nil leaves admission off.
func (s *Server) WithAdmission(a *serve.Admission) *Server {
	s.admit = a
	return s
}

// WithReplication marks this server a read replica of primary: local
// ingests are rejected with a 307 to the primary, and the appliers'
// stream books join /v1/metrics.
func (s *Server) WithReplication(primary string, appliers []*repl.Applier) *Server {
	s.replicaOf = primary
	s.appliers = appliers
	return s
}

// WithReplSource mounts the /v1/repl/* endpoints (durable nodes only).
func (s *Server) WithReplSource(src *repl.Source) *Server {
	s.replSrc = src
	return s
}

// clientID identifies the caller for per-client rate limiting: the
// X-API-Key header when present, else the remote host (ports vary per
// connection, so they are stripped — one laptop hammering the server is
// one bucket, not one bucket per TCP connection).
func clientID(r *http.Request) string {
	if key := r.Header.Get("X-API-Key"); key != "" {
		return key
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// admitRequest runs the request through the admission controller before
// any body decoding or pipeline work. On refusal it writes the fast 429
// (Retry-After header plus a JSON body whose class distinguishes
// rate-limited from shed) and returns ok=false. The caller must invoke
// release exactly once when the request finishes.
func (s *Server) admitRequest(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.admit.Admit(r.Context(), clientID(r))
	if err == nil {
		return release, true
	}
	var ref *serve.Refusal
	if errors.As(err, &ref) {
		class := "shed"
		if errors.Is(err, serve.ErrRateLimited) {
			class = "rate-limited"
		}
		w.Header().Set("Retry-After", strconv.Itoa(serve.RetryAfterSeconds(ref.RetryAfter)))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), Class: class})
		return nil, false
	}
	// The client went away while queued for a slot.
	writeJSON(w, 499, errorResponse{Error: err.Error(), Class: string(answer.ClassCanceled)})
	return nil, false
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/methods", s.handleMethods)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/prompts", s.handlePrompts)
	mux.HandleFunc("POST /v1/prompts/reload", s.handlePromptsReload)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceByID)
	mux.HandleFunc("POST /v1/answer", s.handleAnswer)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/snapshot/compact", s.handleCompact)
	mux.HandleFunc("POST /v1/snapshot/checkpoint", s.handleCheckpoint)
	if s.replSrc != nil {
		s.replSrc.Mount(mux)
	}
	return mux
}

// --- wire types ---

// answerRequest is the /v1/answer body; queryItem is its reusable core,
// shared with batch items.
type queryItem struct {
	Question string   `json:"question"`
	Open     bool     `json:"open,omitempty"`
	Anchors  []string `json:"anchors,omitempty"`
	// PromptVersions pins specific prompt versions for this query only
	// (A/B testing), e.g. {"answer-graph": "2"}. Unknown names or
	// versions fail the request with class "invalid-query".
	PromptVersions map[string]string `json:"prompt_versions,omitempty"`
}

type answerRequest struct {
	queryItem
	Method       string `json:"method,omitempty"` // default "ours"
	Model        string `json:"model,omitempty"`  // gpt3.5|gpt4
	KG           string `json:"kg,omitempty"`     // wikidata|freebase
	IncludeTrace bool   `json:"include_trace,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	// TokenBudget caps the total LLM tokens this request may spend; the
	// scheduler refuses calls past it (HTTP 429, class "budget").
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
	// with — the observable half of a "prompt_versions" A/B override.
	PromptVersions map[string]string `json:"prompt_versions,omitempty"`
	// Cached marks an SSE answer event served from the answer cache (the
	// JSON path reports the same through the X-Cache header instead).
	Cached bool       `json:"cached,omitempty"`
	Trace  *traceWire `json:"trace,omitempty"`
}

type traceWire struct {
	Gp           []string    `json:"gp,omitempty"`
	Gg           []string    `json:"gg,omitempty"`
	Gf           []string    `json:"gf,omitempty"`
	KeptSubjects []string    `json:"kept_subjects,omitempty"`
	PseudoError  string      `json:"pseudo_error,omitempty"`
	Stages       []stageWire `json:"stages,omitempty"`
}

// stageWire is one stage span in an answer trace.
type stageWire struct {
	Stage            string  `json:"stage"`
	LatencyMS        float64 `json:"latency_ms"`
	LLMCalls         int     `json:"llm_calls"`
	PromptTokens     int     `json:"prompt_tokens,omitempty"`
	CompletionTokens int     `json:"completion_tokens,omitempty"`
	InputSize        int     `json:"input_size"`
	OutputSize       int     `json:"output_size"`
	Error            string  `json:"error,omitempty"`
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
	Class  string          `json:"class,omitempty"`
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

type errorResponse struct {
	Error string `json:"error"`
	Class string `json:"class"`
	// Stages carries the failed run's partial stage spans (the last one
	// names the failing stage and its error class) when the request asked
	// for a trace.
	Stages []stageWire `json:"stages,omitempty"`
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metricsResponse is the /v1/metrics body.
type metricsResponse struct {
	Methods      []serve.MethodSnapshot     `json:"methods"`
	Cache        serve.CacheStats           `json:"cache"`
	CacheEnabled bool                       `json:"cache_enabled"`
	Singleflight serve.GroupStats           `json:"singleflight"`
	EmbedMemo    core.MemoStats             `json:"embed_memo"`
	Substrates   map[string]substrate.Stats `json:"substrates"`
	// Scheduler reports the shared LLM admission controller: lane depths,
	// wait times, budget refusals (zeros when -llm-concurrency is 0).
	Scheduler        llm.SchedulerStats `json:"scheduler"`
	SchedulerEnabled bool               `json:"scheduler_enabled"`
	// Traces reports the request-trace store (zeros when -trace-dir is
	// unset).
	Traces        trace.StoreStats `json:"traces"`
	TracesEnabled bool             `json:"traces_enabled"`
	// Admission reports the answer-route admission controller: admitted/
	// shed/limited counters and the live in-flight and queue-depth gauges
	// (zeros when admission is off).
	Admission        serve.AdmissionStats `json:"admission"`
	AdmissionEnabled bool                 `json:"admission_enabled"`
	// Prompts reports the active prompt-version set serving requests —
	// the same fingerprint that scopes answer-cache keys, so a reload
	// that changed it is immediately visible here.
	Prompts promptsStatus `json:"prompts"`
	// Replication reports this node's role and, on replicas, the
	// per-source stream books (applied/head epochs, lag, reconnects);
	// absent on memory-only nodes.
	Replication *replicationWire `json:"replication,omitempty"`
}

// replicationWire is the /v1/metrics replication section.
type replicationWire struct {
	Role    string `json:"role"` // "primary" | "replica"
	Primary string `json:"primary,omitempty"`
	// Sources maps KG labels to applier books (replicas only).
	Sources map[string]repl.ApplierStats `json:"sources,omitempty"`
	// CaughtUp is true when every applier is connected with zero lag —
	// the signal the chaos suite and CI gate on.
	CaughtUp bool `json:"caught_up"`
}

// replicationStatus assembles the metrics section (nil when the node
// has no replication role).
func (s *Server) replicationStatus() *replicationWire {
	if s.replicaOf != "" {
		wire := &replicationWire{Role: "replica", Primary: s.replicaOf, Sources: map[string]repl.ApplierStats{}}
		wire.CaughtUp = len(s.appliers) > 0
		for _, a := range s.appliers {
			st := a.Stats()
			wire.Sources[st.Source] = st
			if !st.Connected || st.LagRecords > 0 {
				wire.CaughtUp = false
			}
		}
		return wire
	}
	if s.replSrc != nil {
		return &replicationWire{Role: "primary"}
	}
	return nil
}

// promptsStatus is the /v1/metrics prompt summary: active versions only
// (GET /v1/prompts lists every loaded version including candidates).
type promptsStatus struct {
	Fingerprint string            `json:"fingerprint"`
	Versions    map[string]string `json:"versions"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := metricsResponse{
		Methods:          s.env.Metrics.Snapshot(),
		Cache:            s.env.Cache.Stats(),
		CacheEnabled:     s.env.Cache != nil,
		Singleflight:     s.env.DedupStats(),
		EmbedMemo:        s.env.MemoStats(),
		Substrates:       s.env.SubstrateStats(),
		Scheduler:        s.env.SchedulerStats(),
		SchedulerEnabled: s.env.Scheduler != nil,
		Traces:           s.env.TraceStats(),
		TracesEnabled:    s.env.Cfg.Trace != nil,
		Admission:        s.admit.Stats(),
		AdmissionEnabled: s.admit != nil,
		Prompts: promptsStatus{
			Fingerprint: s.env.Prompts.Fingerprint(),
			Versions:    s.env.Prompts.View().Versions(),
		},
		Replication: s.replicationStatus(),
	}
	if resp.Methods == nil {
		resp.Methods = []serve.MethodSnapshot{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- prompt-registry handlers ---

// promptsResponse is the GET /v1/prompts (and reload) body: every loaded
// prompt version with its task, candidate flag, active marker and source,
// plus the active-set fingerprint and the overlay directory.
type promptsResponse struct {
	Fingerprint string         `json:"fingerprint"`
	Dir         string         `json:"dir,omitempty"`
	Prompts     []prompts.Info `json:"prompts"`
}

func (s *Server) promptsWire() promptsResponse {
	reg := s.env.Prompts
	return promptsResponse{Fingerprint: reg.Fingerprint(), Dir: reg.Dir(), Prompts: reg.List()}
}

func (s *Server) handlePrompts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.promptsWire())
}

// handlePromptsReload re-reads the -prompt-dir overlay and swaps the
// prompt set atomically; an invalid file rejects the whole reload with
// 422 and the current set keeps serving. The response is the post-reload
// state, so the caller can diff fingerprints to see whether anything
// actually changed.
func (s *Server) handlePromptsReload(w http.ResponseWriter, r *http.Request) {
	if err := s.env.Prompts.Reload(); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{
			Error: fmt.Sprintf("prompt reload rejected, current set keeps serving: %v", err),
			Class: "invalid-prompts",
		})
		return
	}
	writeJSON(w, http.StatusOK, s.promptsWire())
}

// --- trace-store handlers ---

// traceSummary is one /v1/traces list entry: enough to scan and pick a
// record without shipping the full graphs.
type traceSummary struct {
	ID         string  `json:"id"`
	Time       string  `json:"time,omitempty"`
	Question   string  `json:"question"`
	Method     string  `json:"method"`
	Model      string  `json:"model,omitempty"`
	KG         string  `json:"kg,omitempty"`
	Epoch      uint64  `json:"epoch"`
	CacheHit   bool    `json:"cache_hit"`
	ErrorClass string  `json:"error_class,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	LLMCalls   int     `json:"llm_calls"`
}

type tracesResponse struct {
	Traces []traceSummary   `json:"traces"`
	Stats  trace.StoreStats `json:"stats"`
}

// tracesDisabled writes the 404 every trace route returns on a server
// started without -trace-dir.
func (s *Server) tracesDisabled(w http.ResponseWriter) bool {
	if s.env.Cfg.Trace != nil {
		return false
	}
	writeJSON(w, http.StatusNotFound, errorResponse{
		Error: "tracing is disabled: start pgakvd with -trace-dir to record request traces",
		Class: "not-found",
	})
	return true
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracesDisabled(w) {
		return
	}
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, fmt.Errorf("invalid limit %q", v), answer.ClassInvalidQuery)
			return
		}
		limit = n
	}
	if limit > 500 {
		limit = 500
	}
	recs, err := s.env.Cfg.Trace.List(trace.ListOptions{Limit: limit, Method: r.URL.Query().Get("method")})
	if err != nil {
		writeError(w, err, answer.ClassUpstream)
		return
	}
	resp := tracesResponse{Traces: []traceSummary{}, Stats: s.env.TraceStats()}
	for _, rec := range recs {
		resp.Traces = append(resp.Traces, traceSummary{
			ID:         rec.ID,
			Time:       rec.Time,
			Question:   rec.Question,
			Method:     rec.Method,
			Model:      rec.Model,
			KG:         rec.KG,
			Epoch:      rec.Epoch,
			CacheHit:   rec.CacheHit,
			ErrorClass: rec.ErrorClass,
			ElapsedMS:  float64(rec.ElapsedUS) / 1000,
			LLMCalls:   rec.LLMCalls,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.tracesDisabled(w) {
		return
	}
	rec, err := s.env.Cfg.Trace.Get(r.PathValue("id"))
	if errors.Is(err, trace.ErrNotFound) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error(), Class: "not-found"})
		return
	}
	if err != nil {
		writeError(w, err, answer.ClassUpstream)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	type methodInfo struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	var methods []methodInfo
	for _, name := range answer.Names() {
		desc, _ := answer.Describe(name)
		methods = append(methods, methodInfo{Name: name, Description: desc})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"methods":    methods,
		"models":     []string{"gpt3.5", "gpt4"},
		"kg_sources": []string{"wikidata", "freebase"},
	})
}

// maxBodyBytes bounds request bodies before JSON decoding.
const maxBodyBytes = 8 << 20

// decodeBody reads a POST body capped at s.maxBody into v, writing the
// error response itself on failure: 413 when the cap was exceeded (the
// reader stops before buffering an oversized body), 400 otherwise.
// allowEmpty treats an empty body as a decoded zero value.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, allowEmpty bool) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(v)
	if err == nil || (allowEmpty && errors.Is(err, io.EOF)) {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit),
			Class: "too-large",
		})
		return false
	}
	writeError(w, fmt.Errorf("decoding request: %w", err), answer.ClassInvalidQuery)
	return false
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	defer release()
	var req answerRequest
	if !s.decodeBody(w, r, &req, false) {
		return
	}
	ans, model, src, err := s.resolve(req.Method, req.Model, req.KG)
	if err != nil {
		writeError(w, err, answer.Classify(err))
		return
	}

	// Interactive lane: a user is waiting on this response, so when the
	// LLM scheduler saturates this request is admitted ahead of queued
	// batch/bench work.
	ctx := llm.WithPriority(r.Context(), llm.PriorityInteractive)
	timeout := s.timeout
	if req.TimeoutMS > 0 {
		// A client may tighten the deadline but never loosen it past the
		// operator's cap.
		requested := time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout == 0 || requested < timeout {
			timeout = requested
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	q := answer.Query{
		Text:           req.Question,
		Method:         ans.Name(),
		Model:          model,
		Open:           req.Open,
		Anchors:        req.Anchors,
		PromptVersions: req.PromptVersions,
	}
	if req.TokenBudget > 0 {
		q.Overrides.TokenBudget = &req.TokenBudget
	}
	if wantsSSE(r) {
		s.streamAnswer(w, ctx, ans, q, src, req.IncludeTrace)
		return
	}
	ctx, info := serve.Attach(ctx)
	res, err := ans.Answer(ctx, q)
	if err != nil {
		resp := errorResponse{Error: err.Error(), Class: string(answer.Classify(err))}
		if req.IncludeTrace && res.Trace != nil {
			// The partial spans name the failing stage and its error class.
			resp.Stages = stageWires(res.Trace.Stages)
		}
		writeJSON(w, statusFor(answer.Classify(err)), resp)
		return
	}
	if info.CacheUsed {
		state := "miss"
		if info.CacheHit {
			state = "hit"
		}
		w.Header().Set("X-Cache", state)
	}
	writeJSON(w, http.StatusOK, toWire(res, src, req.IncludeTrace))
}

// wantsSSE reports whether the client asked for a streamed answer.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
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
func (s *Server) streamAnswer(w http.ResponseWriter, ctx context.Context, ans answer.Answerer, q answer.Query, src kg.Source, includeTrace bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errors.New("streaming is unsupported by this connection"), answer.ClassInvalidQuery)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	out := &sseWriter{w: w, f: flusher}

	ctx = exec.WithSpanObserver(ctx, func(sp exec.Span) {
		out.event("stage", stageWires([]exec.Span{sp})[0])
	})
	ctx, info := serve.Attach(ctx)
	res, err := ans.Answer(ctx, q)
	if err != nil {
		resp := errorResponse{Error: err.Error(), Class: string(answer.Classify(err))}
		if includeTrace && res.Trace != nil {
			resp.Stages = stageWires(res.Trace.Stages)
		}
		out.event("error", resp)
		return
	}
	wire := toWire(res, src, includeTrace)
	wire.Cached = info.CacheHit
	out.event("answer", wire)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	defer release()
	var req batchRequest
	if !s.decodeBody(w, r, &req, false) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, errors.New("batch has no queries"), answer.ClassInvalidQuery)
		return
	}
	if len(req.Queries) > s.maxBatch {
		writeError(w, fmt.Errorf("batch of %d exceeds the limit of %d", len(req.Queries), s.maxBatch), answer.ClassInvalidQuery)
		return
	}
	ans, model, src, err := s.resolve(req.Method, req.Model, req.KG)
	if err != nil {
		writeError(w, err, answer.Classify(err))
		return
	}
	workers := req.Concurrency
	if workers < 1 {
		workers = s.env.Cfg.Workers
	}
	if workers > s.maxConcurrency {
		workers = s.maxConcurrency
	}

	// Batch lane: bulk work yields the LLM scheduler to interactive
	// traffic when the concurrency limit saturates.
	ctx := llm.WithPriority(r.Context(), llm.PriorityBatch)
	batchDeadline := s.timeout
	if req.TimeoutMS > 0 {
		requested := time.Duration(req.TimeoutMS) * time.Millisecond
		if batchDeadline == 0 || requested < batchDeadline {
			batchDeadline = requested
		}
	}
	// Per-item deadlines derive from the batch deadline: every item gets
	// the deadline as its own clock, started when its worker picks it up —
	// the same per-request semantics /v1/answer has. A single slow item
	// times out alone (its entry reports class "deadline") instead of one
	// shared batch timer expiring and failing every item queued behind it,
	// and an item is never killed early just because the batch was large.
	// Total batch wall-clock stays bounded at ceil(N/workers) deadlines.
	opts := []answer.BatchOption{answer.Concurrency(workers)}
	if batchDeadline > 0 {
		opts = append(opts, answer.ItemTimeout(batchDeadline))
	}

	queries := make([]answer.Query, len(req.Queries))
	for i, q := range req.Queries {
		queries[i] = answer.Query{
			Text:           q.Question,
			Method:         ans.Name(),
			Model:          model,
			Open:           q.Open,
			Anchors:        q.Anchors,
			PromptVersions: q.PromptVersions,
		}
	}
	start := time.Now()
	items := answer.Batch(ctx, ans, queries, opts...)

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
			wireItem.Class = string(item.Class)
		} else {
			wire := toWire(item.Result, src, false)
			wireItem.Result = &wire
		}
		resp.Items = append(resp.Items, wireItem)
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- live-ingest handlers ---

// tripleWire is the JSON form of one ingested triple.
type tripleWire struct {
	Subject  string `json:"subject"`
	Relation string `json:"relation"`
	Object   string `json:"object"`
	// Ord orders time-varying values of the same (subject, relation).
	Ord int `json:"ord,omitempty"`
}

type ingestRequest struct {
	KG      string       `json:"kg,omitempty"` // default wikidata
	Triples []tripleWire `json:"triples"`
}

type ingestResponse struct {
	KG           string `json:"kg"`
	Added        int    `json:"added"`
	Skipped      int    `json:"skipped"`
	Epoch        uint64 `json:"epoch"`
	BaseTriples  int    `json:"base_triples"`
	DeltaTriples int    `json:"delta_triples"`
}

type compactRequest struct {
	KG string `json:"kg,omitempty"` // default wikidata
}

type compactResponse struct {
	KG           string `json:"kg"`
	Epoch        uint64 `json:"epoch"`
	BaseTriples  int    `json:"base_triples"`
	DeltaTriples int    `json:"delta_triples"`
	ElapsedMS    int64  `json:"elapsed_ms"`
}

// servableSource parses a KG-source label and rejects anything the
// server has no substrate for ("unknown" parses but is not servable).
// The empty label defaults to wikidata.
func (s *Server) servableSource(source string) (kg.Source, error) {
	src := kg.SourceWikidata
	if source != "" {
		var err error
		if src, err = kg.ParseSource(source); err != nil {
			return 0, &answer.InvalidQueryError{Reason: err.Error()}
		}
	}
	if _, ok := s.env.Substrates[src]; !ok {
		return 0, &answer.InvalidQueryError{Reason: fmt.Sprintf("no substrate for source %q (want wikidata or freebase)", source)}
	}
	return src, nil
}

// substrateFor resolves a KG-source label to its live substrate manager.
func (s *Server) substrateFor(source string) (*substrate.Manager, kg.Source, error) {
	src, err := s.servableSource(source)
	if err != nil {
		return nil, 0, err
	}
	return s.env.Substrates[src], src, nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.replicaOf != "" {
		// Writes are single-home: a local ingest would fork the epoch
		// chain. 307 preserves the method and body, so a client that
		// follows redirects lands the same ingest on the primary.
		w.Header().Set("Location", s.replicaOf+"/v1/ingest")
		writeJSON(w, http.StatusTemporaryRedirect, errorResponse{
			Error: "this node is a read replica; ingest on the primary at " + s.replicaOf,
			Class: "replica",
		})
		return
	}
	var req ingestRequest
	if !s.decodeBody(w, r, &req, false) {
		return
	}
	if len(req.Triples) == 0 {
		writeError(w, errors.New("ingest has no triples"), answer.ClassInvalidQuery)
		return
	}
	if len(req.Triples) > s.maxIngest {
		writeError(w, fmt.Errorf("ingest of %d triples exceeds the limit of %d", len(req.Triples), s.maxIngest), answer.ClassInvalidQuery)
		return
	}
	mgr, src, err := s.substrateFor(req.KG)
	if err != nil {
		writeError(w, err, answer.Classify(err))
		return
	}
	triples := make([]kg.Triple, len(req.Triples))
	for i, t := range req.Triples {
		triples[i] = kg.Triple{Subject: t.Subject, Relation: t.Relation, Object: t.Object, Ord: t.Ord}
	}
	res, err := mgr.Ingest(triples)
	if err != nil {
		writeError(w, err, answer.ClassInvalidQuery)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		KG:           src.String(),
		Added:        res.Added,
		Skipped:      res.Skipped,
		Epoch:        res.Epoch,
		BaseTriples:  res.BaseTriples,
		DeltaTriples: res.DeltaTriples,
	})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	var req compactRequest
	// An empty body means "compact the default source".
	if !s.decodeBody(w, r, &req, true) {
		return
	}
	mgr, src, err := s.substrateFor(req.KG)
	if err != nil {
		writeError(w, err, answer.Classify(err))
		return
	}
	start := time.Now()
	snap, err := mgr.Compact(r.Context())
	if errors.Is(err, substrate.ErrCompacting) {
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error(), Class: "conflict"})
		return
	}
	if err != nil {
		writeError(w, err, answer.Classify(err))
		return
	}
	writeJSON(w, http.StatusOK, compactResponse{
		KG:           src.String(),
		Epoch:        snap.Epoch,
		BaseTriples:  snap.BaseTriples,
		DeltaTriples: snap.DeltaTriples,
		ElapsedMS:    time.Since(start).Milliseconds(),
	})
}

// checkpointRequest/Response are the /v1/snapshot/checkpoint wire forms.
type checkpointRequest struct {
	KG string `json:"kg,omitempty"` // default wikidata
}

type checkpointResponse struct {
	KG        string `json:"kg"`
	Epoch     uint64 `json:"epoch"`
	Triples   int    `json:"triples"`
	Shards    int    `json:"shards"`
	Path      string `json:"path"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	var req checkpointRequest
	// An empty body means "checkpoint the default source".
	if !s.decodeBody(w, r, &req, true) {
		return
	}
	mgr, src, err := s.substrateFor(req.KG)
	if err != nil {
		writeError(w, err, answer.Classify(err))
		return
	}
	start := time.Now()
	info, err := mgr.Checkpoint(r.Context())
	switch {
	case errors.Is(err, substrate.ErrNotDurable):
		writeError(w, errors.New("server is not durable: start pgakvd with -data-dir to enable checkpoints"), answer.ClassInvalidQuery)
		return
	case errors.Is(err, substrate.ErrCheckpointing):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error(), Class: "conflict"})
		return
	case err != nil:
		writeError(w, err, answer.Classify(err))
		return
	}
	writeJSON(w, http.StatusOK, checkpointResponse{
		KG:        src.String(),
		Epoch:     info.Epoch,
		Triples:   info.Triples,
		Shards:    info.Shards,
		Path:      info.Path,
		ElapsedMS: time.Since(start).Milliseconds(),
	})
}

// resolve maps the request's method/model/kg labels onto a bound Answerer.
func (s *Server) resolve(method, model, source string) (answer.Answerer, string, kg.Source, error) {
	if method == "" {
		method = "ours"
	}
	modelName, err := resolveModel(model)
	if err != nil {
		return nil, "", 0, err
	}
	src, err := s.servableSource(source)
	if err != nil {
		return nil, "", 0, err
	}
	ans, err := s.env.Answerer(method, modelName, src)
	if err != nil {
		return nil, "", 0, err
	}
	return ans, modelName, src, nil
}

// resolveModel maps user-facing model labels onto the bench model table.
func resolveModel(model string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(model)) {
	case "", "gpt3.5", "gpt-3.5", "gpt35":
		return bench.ModelGPT35, nil
	case "gpt4", "gpt-4":
		return bench.ModelGPT4, nil
	default:
		return "", &answer.InvalidQueryError{Reason: fmt.Sprintf("unknown model %q (want gpt3.5 or gpt4)", model)}
	}
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
		tw := &traceWire{}
		if res.Trace.Gp != nil {
			for _, t := range res.Trace.Gp.Triples {
				tw.Gp = append(tw.Gp, t.String())
			}
		}
		if res.Trace.Gg != nil {
			for _, t := range res.Trace.Gg.Triples {
				tw.Gg = append(tw.Gg, t.String())
			}
		}
		if res.Trace.Gf != nil {
			for _, t := range res.Trace.Gf.Triples {
				tw.Gf = append(tw.Gf, t.String())
			}
		}
		for _, sc := range res.Trace.Kept {
			tw.KeptSubjects = append(tw.KeptSubjects, fmt.Sprintf("%s (%.3f)", sc.Subject, sc.Confidence))
		}
		if res.Trace.PseudoErr != nil {
			tw.PseudoError = res.Trace.PseudoErr.Error()
		}
		tw.Stages = stageWires(res.Trace.Stages)
		out.Trace = tw
	}
	return out
}

// stageWires converts exec spans to their wire form.
func stageWires(spans []exec.Span) []stageWire {
	out := make([]stageWire, 0, len(spans))
	for _, sp := range spans {
		out = append(out, stageWire{
			Stage:            sp.Stage,
			LatencyMS:        float64(sp.Latency) / float64(time.Millisecond),
			LLMCalls:         sp.LLMCalls,
			PromptTokens:     sp.PromptTokens,
			CompletionTokens: sp.CompletionTokens,
			InputSize:        sp.InputSize,
			OutputSize:       sp.OutputSize,
			Error:            sp.Err,
		})
	}
	return out
}

// statusFor maps error classes onto HTTP statuses.
func statusFor(class answer.ErrorClass) int {
	switch class {
	case answer.ClassUnknownMethod, answer.ClassInvalidQuery:
		return http.StatusBadRequest
	case answer.ClassBudget:
		// The request's own token budget ran out mid-run.
		return http.StatusTooManyRequests
	case answer.ClassDeadline:
		return http.StatusGatewayTimeout
	case answer.ClassCanceled:
		// 499: client closed request (nginx convention) — the client is
		// usually gone, but batch-internal cancellations still surface it.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error, class answer.ErrorClass) {
	writeJSON(w, statusFor(class), errorResponse{Error: err.Error(), Class: string(class)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
