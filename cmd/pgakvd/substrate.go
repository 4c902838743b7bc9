package main

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/failure"
	"repro/internal/kg"
	"repro/internal/substrate"
)

// The substrate admin routes: POST /v1/ingest, /v1/snapshot/compact and
// /v1/snapshot/checkpoint. Ingest and compaction swap substrate snapshots
// atomically: queries in flight keep the snapshot they resolved, new
// queries see the new epoch, and the answer cache serves a pre-swap answer
// post-swap only after its KG reads replayed identically on the new
// snapshot.

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
	KG string `json:"kg"`
	substrate.IngestResult
}

// sourceRequest is the /v1/snapshot/compact and /v1/snapshot/checkpoint
// body.
type sourceRequest struct {
	KG string `json:"kg,omitempty"` // default wikidata
}

type compactResponse struct {
	KG           string `json:"kg"`
	Epoch        uint64 `json:"epoch"`
	BaseTriples  int    `json:"base_triples"`
	DeltaTriples int    `json:"delta_triples"`
	ElapsedMS    int64  `json:"elapsed_ms"`
}

type checkpointResponse struct {
	KG string `json:"kg"`
	substrate.CheckpointInfo
	ElapsedMS int64 `json:"elapsed_ms"`
}

// redirectIngest is a replica's /v1/ingest. Writes are single-home: a
// local ingest would fork the epoch chain. 307 preserves the method and
// body, so a client that follows redirects lands the same ingest on the
// primary.
func (s *Server) redirectIngest(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Location", s.cfg.ReplicaOf+"/v1/ingest")
	writeError(w, failure.Replica, errors.New("this node is a read replica; ingest on the primary at "+s.cfg.ReplicaOf))
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, req ingestRequest) {
	if len(req.Triples) == 0 {
		writeError(w, failure.InvalidQuery, errors.New("ingest has no triples"))
		return
	}
	if len(req.Triples) > maxIngest {
		writeError(w, failure.InvalidQuery, fmt.Errorf("ingest of %d triples exceeds the limit of %d", len(req.Triples), maxIngest))
		return
	}
	mgr, src, err := s.substrateFor(req.KG)
	if err != nil {
		writeError(w, failure.Of(err), err)
		return
	}
	triples := make([]kg.Triple, len(req.Triples))
	for i, t := range req.Triples {
		triples[i] = kg.Triple{Subject: t.Subject, Relation: t.Relation, Object: t.Object, Ord: t.Ord}
	}
	res, err := mgr.Ingest(triples)
	if err != nil {
		// A refused triple is the client's fault (invalid-query); a failed
		// WAL append is ours (storage), and the client may retry it.
		writeError(w, failure.Of(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{KG: src.String(), IngestResult: res})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request, req sourceRequest) {
	mgr, src, err := s.substrateFor(req.KG)
	if err != nil {
		writeError(w, failure.Of(err), err)
		return
	}
	start := time.Now()
	snap, err := mgr.Compact(r.Context())
	if err != nil {
		writeError(w, failure.Of(err), err)
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

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, req sourceRequest) {
	mgr, src, err := s.substrateFor(req.KG)
	if err != nil {
		writeError(w, failure.Of(err), err)
		return
	}
	start := time.Now()
	info, err := mgr.Checkpoint(r.Context())
	if errors.Is(err, substrate.ErrNotDurable) {
		err = failure.Wrap(failure.Unsupported, errors.New("server is not durable: start pgakvd with -data-dir to enable checkpoints"))
	}
	if err != nil {
		writeError(w, failure.Of(err), err)
		return
	}
	writeJSON(w, http.StatusOK, checkpointResponse{KG: src.String(), CheckpointInfo: info, ElapsedMS: time.Since(start).Milliseconds()})
}
