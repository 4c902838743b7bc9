package main

import (
	"net/http"

	"repro/internal/llm"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/substrate"
	"repro/internal/trace"
)

// metricsResponse is the /v1/metrics body.
type metricsResponse struct {
	Methods      []serve.MethodSnapshot     `json:"methods"`
	Cache        serve.CacheStats           `json:"cache"`
	CacheEnabled bool                       `json:"cache_enabled"`
	Singleflight serve.GroupStats           `json:"singleflight"`
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
	if s.cfg.ReplicaOf != "" {
		wire := &replicationWire{Role: "replica", Primary: s.cfg.ReplicaOf, Sources: map[string]repl.ApplierStats{}}
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
	n := s.node
	resp := metricsResponse{
		Methods:          n.Metrics.Snapshot(),
		Cache:            n.Cache.Stats(),
		CacheEnabled:     n.Cache != nil,
		Singleflight:     n.DedupStats(),
		Substrates:       n.SubstrateStats(),
		Scheduler:        n.SchedulerStats(),
		SchedulerEnabled: n.Scheduler != nil,
		Traces:           n.TraceStats(),
		TracesEnabled:    n.Cfg.Trace != nil,
		Admission:        s.admit.Stats(),
		AdmissionEnabled: s.admit != nil,
		Prompts: promptsStatus{
			Fingerprint: n.Prompts.Fingerprint(),
			Versions:    n.Prompts.View().Versions(),
		},
		Replication: s.replicationStatus(),
	}
	if resp.Methods == nil {
		resp.Methods = []serve.MethodSnapshot{}
	}
	writeJSON(w, http.StatusOK, resp)
}
