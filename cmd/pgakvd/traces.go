package main

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/failure"
	"repro/internal/trace"
)

// traceSummary is one /v1/traces list entry: enough to scan and pick a
// record without shipping the full graphs.
type traceSummary struct {
	ID         string        `json:"id"`
	Time       string        `json:"time,omitempty"`
	Question   string        `json:"question"`
	Method     string        `json:"method"`
	Model      string        `json:"model,omitempty"`
	KG         string        `json:"kg,omitempty"`
	Epoch      uint64        `json:"epoch"`
	CacheHit   bool          `json:"cache_hit"`
	ErrorClass failure.Class `json:"error_class,omitempty"`
	ElapsedMS  float64       `json:"elapsed_ms"`
	LLMCalls   int           `json:"llm_calls"`
}

type tracesResponse struct {
	Traces []traceSummary   `json:"traces"`
	Stats  trace.StoreStats `json:"stats"`
}

// traced guards a trace route: a server started without -trace-dir
// answers every one of them with the same 404.
func (s *Server) traced(next http.HandlerFunc) http.Handler {
	if s.node.Cfg.Trace != nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, failure.NotFound, errors.New("tracing is disabled: start pgakvd with -trace-dir to record request traces"))
	})
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, failure.InvalidQuery, fmt.Errorf("invalid limit %q", v))
			return
		}
		limit = n
	}
	if limit > 500 {
		limit = 500
	}
	recs, err := s.node.Cfg.Trace.List(trace.ListOptions{Limit: limit, Method: r.URL.Query().Get("method")})
	if err != nil {
		writeError(w, failure.Storage, err)
		return
	}
	resp := tracesResponse{Traces: []traceSummary{}, Stats: s.node.TraceStats()}
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
	rec, err := s.node.Cfg.Trace.Get(r.PathValue("id"))
	if errors.Is(err, trace.ErrNotFound) {
		writeError(w, failure.NotFound, err)
		return
	}
	if err != nil {
		writeError(w, failure.Storage, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}
