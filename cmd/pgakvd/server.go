package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/answer"
	"repro/internal/core/exec"
	"repro/internal/failure"
	"repro/internal/kg"
	"repro/internal/node"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/substrate"
)

// Request-size limits no flag changes.
const (
	maxBatch       = 256   // queries per /v1/batch
	maxConcurrency = 32    // workers per batch
	maxIngest      = 10000 // triples per /v1/ingest
)

// Server is the HTTP front door over one node. Every handler honours the
// request context: a disconnecting client or an expiring per-request
// timeout cancels the in-flight pipeline run. The handlers live in one
// file per route family (answer.go, substrate.go, prompts.go, traces.go,
// metrics.go); Handler is the route table that composes them.
type Server struct {
	node *node.Node
	cfg  Config
	// admit guards /v1/answer and /v1/batch with per-client rate limiting
	// and queue-depth load shedding; nil admits everything.
	admit *serve.Admission
	// appliers are the per-source stream-apply loops of a replica
	// (cfg.ReplicaOf set); the caller runs them.
	appliers []*repl.Applier
	// replSrc serves the /v1/repl/* endpoints on durable nodes.
	replSrc *repl.Source
}

// NewServer builds the front door for a node: the admission controller
// the config asks for, the replication source every durable node mounts
// (replicas mirror the primary's record chain in their own WAL, so they
// can in turn bootstrap and feed further replicas), and on a replica one
// applier per source.
func NewServer(n *node.Node, cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	s := &Server{node: n, cfg: cfg}
	if cfg.Admission.Limiter.Rate > 0 || cfg.Admission.MaxInFlight > 0 {
		s.admit = serve.NewAdmission(cfg.Admission)
	}
	if n.Cfg.Substrate.Durability.Enabled() {
		mgrs := make(map[string]repl.Manager, len(node.Sources))
		for _, src := range node.Sources {
			mgrs[src.String()] = n.Substrates[src]
		}
		s.replSrc = repl.NewSource(mgrs, cfg.ReplicaOf != "")
	}
	if cfg.ReplicaOf != "" {
		for _, src := range node.Sources {
			a, err := repl.NewApplier(repl.ApplierConfig{Primary: cfg.ReplicaOf, Source: src.String(), Manager: n.Substrates[src]})
			if err != nil {
				return nil, err
			}
			s.appliers = append(s.appliers, a)
		}
	}
	return s, nil
}

// Handler builds the route table. Admission wraps the answer routes only
// and sits outside the body decode, so an overloaded or abusive client
// costs a fast 429 — never a decoded body, a pipeline run or an LLM call.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/methods", s.handleMethods)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/prompts", s.handlePrompts)
	mux.HandleFunc("POST /v1/prompts/reload", s.handlePromptsReload)
	mux.Handle("GET /v1/traces", s.traced(s.handleTraces))
	mux.Handle("GET /v1/traces/{id}", s.traced(s.handleTraceByID))
	mux.Handle("POST /v1/answer", s.admitted(jsonBody(s, false, s.handleAnswer)))
	mux.Handle("POST /v1/batch", s.admitted(jsonBody(s, false, s.handleBatch)))
	if s.cfg.ReplicaOf != "" {
		mux.HandleFunc("POST /v1/ingest", s.redirectIngest)
	} else {
		mux.Handle("POST /v1/ingest", jsonBody(s, false, s.handleIngest))
	}
	// An empty body means "the default source".
	mux.Handle("POST /v1/snapshot/compact", jsonBody(s, true, s.handleCompact))
	mux.Handle("POST /v1/snapshot/checkpoint", jsonBody(s, true, s.handleCheckpoint))
	if s.replSrc != nil {
		s.replSrc.Mount(mux)
	}
	return mux
}

// --- middleware ---

// admitted runs a request through the admission controller before next
// sees it. A refusal is the fast 429: Retry-After header plus a JSON body
// whose class distinguishes rate-limited from shed.
func (s *Server) admitted(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := s.admit.Admit(r.Context(), clientID(r))
		if err == nil {
			defer release()
			next.ServeHTTP(w, r)
			return
		}
		// A refusal advertises its backoff; any other error is the client
		// going away while queued for a slot.
		var ref *serve.Refusal
		if errors.As(err, &ref) {
			w.Header().Set("Retry-After", strconv.Itoa(serve.RetryAfterSeconds(ref.RetryAfter)))
		}
		writeError(w, failure.Of(err), err)
	})
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

// jsonBody decodes the POST body, capped at cfg.MaxBody, into a T and
// hands it to next. Failures are answered here: 413 when the cap was
// exceeded (the reader stops before buffering an oversized body), 400
// otherwise. allowEmpty treats an empty body as the zero T.
func jsonBody[T any](s *Server, allowEmpty bool, next func(http.ResponseWriter, *http.Request, T)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req T
		err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)).Decode(&req)
		if err == nil || (allowEmpty && errors.Is(err, io.EOF)) {
			next(w, r, req)
			return
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, failure.TooLarge, fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, failure.InvalidQuery, fmt.Errorf("decoding request: %w", err))
	})
}

// --- request labels → node ---

// substrateFor resolves a KG-source label to its live substrate manager,
// rejecting anything the node has no substrate for ("unknown" parses but
// is not servable). The empty label defaults to wikidata.
func (s *Server) substrateFor(source string) (*substrate.Manager, kg.Source, error) {
	src := kg.SourceWikidata
	if source != "" {
		var err error
		if src, err = kg.ParseSource(source); err != nil {
			return nil, 0, &answer.InvalidQueryError{Reason: err.Error()}
		}
	}
	mgr, ok := s.node.Substrates[src]
	if !ok {
		return nil, 0, &answer.InvalidQueryError{Reason: fmt.Sprintf("no substrate for source %q (want %s)", source, strings.Join(sourceLabels(), " or "))}
	}
	return mgr, src, nil
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
	_, src, err := s.substrateFor(source)
	if err != nil {
		return nil, "", 0, err
	}
	ans, err := s.node.Answerer(method, modelName, src)
	if err != nil {
		return nil, "", 0, err
	}
	return ans, modelName, src, nil
}

// resolveModel maps user-facing model labels onto the node's model table.
func resolveModel(model string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(model)) {
	case "", "gpt3.5", "gpt-3.5", "gpt35":
		return node.ModelGPT35, nil
	case "gpt4", "gpt-4":
		return node.ModelGPT4, nil
	default:
		return "", &answer.InvalidQueryError{Reason: fmt.Sprintf("unknown model %q (want gpt3.5 or gpt4)", model)}
	}
}

// sourceLabels spells node.Sources the way requests and responses do.
func sourceLabels() []string {
	out := make([]string, len(node.Sources))
	for i, src := range node.Sources {
		out[i] = src.String()
	}
	return out
}

// --- liveness and discovery ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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
		"kg_sources": sourceLabels(),
	})
}

// --- responses ---

// errorResponse is every error body: the message, and the class whose
// status the reply carries.
type errorResponse struct {
	Error string        `json:"error"`
	Class failure.Class `json:"class"`
	// Stages carries the failed run's partial stage spans (the last one
	// names the failing stage and its error class) when the request asked
	// for a trace, as its trace record stores them.
	Stages []exec.Span `json:"stages,omitempty"`
}

// writeError answers with err under class, at the class's status.
func writeError(w http.ResponseWriter, class failure.Class, err error) {
	writeJSON(w, class.Status(), errorResponse{Error: err.Error(), Class: class})
}

// writeJSON writes v as one compact line; `jq .` is the pretty-printer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
