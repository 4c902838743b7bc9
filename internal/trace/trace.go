// Package trace is the durable request-trace subsystem: every answered
// query already produces a rich in-memory trace (per-stage exec.Spans, LLM
// usage, the pipeline's intermediate graphs, the substrate epoch) and this
// package is where those artefacts stop evaporating. A Record is the
// fully-serialized, self-contained form of one request — no pointers into
// live result graphs — and a FileStore persists Records append-only as
// JSONL, one record per line (the shape of Genkit's file trace store).
//
// A run's trace has one shape, Artefacts: its stage spans and pipeline
// artefacts. A Record embeds it, and every surface that shows a trace
// shows that type, with the record's names and units.
//
// Consumers:
//
//   - serve.WithTrace appends a Record for every request flowing through a
//     serving stack (opt-in; cmd/pgakvd's -trace-dir).
//   - internal/replay records evaluation suites as Records-with-golds and
//     re-runs them deterministically against the current binary.
//   - GET /v1/traces[/{id}] exposes the store for inspection.
//   - cmd/pgakvd shows ArtefactsOf a run as an include_trace reply's
//     trace, its spans as SSE stage events and error-body stages; pgakv
//     -json prints the Record that Build makes.
//   - Attribute reads a record alone to say which pipeline stage lost its
//     answer: the paper's §IV-E error analysis (benchrun -experiment
//     failures).
//
// # Invariants
//
//   - Records alias nothing: Build renders graphs to fresh strings and
//     copies every slice, so a stored Record can never be corrupted by (or
//     corrupt) the live Result it was built from.
//   - Records always serialize the substrate epoch and the cache-hit flag,
//     even when zero/false — replay diffs need them to separate substrate
//     churn and cache effects from genuine method regressions.
//   - The codec round-trips: Decode(Encode(r)) == r for any valid Record,
//     and torn or truncated lines produce an error, never a panic or a
//     silently wrong Record.
package trace

import (
	"time"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/core/exec"
	"repro/internal/failure"
)

// KeptSubject is one pruned-and-kept subject with its confidence, the
// serialized form of core.SubjectConfidence.
type KeptSubject struct {
	Subject    string  `json:"subject"`
	Confidence float64 `json:"confidence"`
	Triples    int     `json:"triples"`
}

// Record is one request's full trace in self-contained, serializable form.
// String and slice fields are owned by the record outright — nothing
// aliases the live Result graphs it was built from.
type Record struct {
	// ID identifies the record within its store (assigned by Append).
	ID string `json:"id,omitempty"`
	// Time is the wall-clock completion time (RFC3339Nano; empty in
	// deterministic replay suites, where wall time is noise).
	Time string `json:"time,omitempty"`

	// Question / Method / Model / KG identify what was asked of whom.
	Question string `json:"question"`
	Method   string `json:"method"`
	Model    string `json:"model,omitempty"`
	KG       string `json:"kg,omitempty"`
	// Open marks a ROUGE-scored open question; Anchors are gold topic
	// entities for anchor-based methods.
	Open    bool     `json:"open,omitempty"`
	Anchors []string `json:"anchors,omitempty"`
	// Golds / Refs carry the evaluation material when the record was made
	// from a dataset question (replay suites); live traffic has none.
	Golds []string `json:"golds,omitempty"`
	Refs  []string `json:"refs,omitempty"`

	// Answer is the final answer text; Error/ErrorClass the failure.
	Answer     string        `json:"answer,omitempty"`
	Error      string        `json:"error,omitempty"`
	ErrorClass failure.Class `json:"error_class,omitempty"`

	// Epoch is the substrate snapshot that served the request and CacheHit
	// whether the answer came from the serving cache. Both serialize
	// unconditionally: replay diffs separate substrate churn (epoch moved)
	// and cache effects (hits report zero usage) from genuine method
	// regressions, so omitting the zero values would erase the signal.
	Epoch    uint64 `json:"epoch"`
	CacheHit bool   `json:"cache_hit"`
	// Shared marks a singleflight follower that received a leader's run.
	Shared bool `json:"shared,omitempty"`

	// ElapsedUS is the request's wall time in microseconds; LLMCalls and
	// the token counters account every model call made on its behalf.
	ElapsedUS        int64 `json:"elapsed_us,omitempty"`
	LLMCalls         int   `json:"llm_calls"`
	PromptTokens     int   `json:"prompt_tokens"`
	CompletionTokens int   `json:"completion_tokens"`

	// PromptVersions pins the exact prompt versions the request rendered
	// with (prompt name -> version string), so replay can restore them and
	// diffs can attribute a regression to a prompt change.
	PromptVersions map[string]string `json:"prompt_versions,omitempty"`

	// Artefacts are the run's anatomy, inlined: encoding/json writes an
	// embedded struct's fields in its place, in their own order.
	Artefacts
}

// Artefacts are what a run shows of its own anatomy: the per-stage spans
// and, for pipeline-backed methods, the extracted Cypher, its decode
// failure, the three graphs as rendered triples (Gp from Pseudo-Graph
// Generation, Gg from atomic querying, Gf from Atomic Knowledge
// Verification) and the kept subjects with confidences. A record embeds
// them, and an include_trace reply shows them as they are.
type Artefacts struct {
	// Stages are the run's per-stage spans, in execution order.
	Stages []exec.Span `json:"stages,omitempty"`

	PseudoCode string        `json:"pseudo_code,omitempty"`
	PseudoErr  string        `json:"pseudo_err,omitempty"`
	Gp         []string      `json:"gp,omitempty"`
	Gg         []string      `json:"gg,omitempty"`
	Gf         []string      `json:"gf,omitempty"`
	Kept       []KeptSubject `json:"kept,omitempty"`
}

// Meta carries the serving-context facts a Result does not know about
// itself: the KG source it ran against, what the serving stack did with
// the request, and optional gold material for replay suites.
type Meta struct {
	KG       string
	CacheHit bool
	Shared   bool
	Golds    []string
	Refs     []string
}

// Build renders one answered (or failed) query into a self-contained
// Record. Every slice is copied and every graph rendered to fresh strings:
// mutating the Result (or its trace) afterwards cannot change the record,
// and vice versa. Build does not assign ID or Time — the Store does, at
// Append.
func Build(q answer.Query, res answer.Result, err error, m Meta) Record {
	rec := Record{
		Question:         q.Text,
		Method:           res.Method,
		Model:            res.Model,
		KG:               m.KG,
		Open:             q.Open,
		Anchors:          append([]string(nil), q.Anchors...),
		Golds:            append([]string(nil), m.Golds...),
		Refs:             append([]string(nil), m.Refs...),
		Answer:           res.Answer,
		Epoch:            res.Epoch,
		CacheHit:         m.CacheHit,
		Shared:           m.Shared,
		ElapsedUS:        res.Elapsed.Microseconds(),
		LLMCalls:         res.LLMCalls,
		PromptTokens:     res.PromptTokens,
		CompletionTokens: res.CompletionTokens,
	}
	if rec.Method == "" {
		rec.Method = q.Method
	}
	if len(res.PromptVersions) > 0 {
		rec.PromptVersions = make(map[string]string, len(res.PromptVersions))
		for k, v := range res.PromptVersions {
			rec.PromptVersions[k] = v
		}
	}
	if rec.Model == "" {
		rec.Model = q.Model
	}
	if err != nil {
		rec.Error = err.Error()
		rec.ErrorClass = failure.Of(err)
	}
	rec.Artefacts = ArtefactsOf(res.Trace)
	return rec
}

// ArtefactsOf renders a run's trace into Artefacts that alias nothing of
// it: the spans are copied and the graphs rendered to fresh strings. A nil
// trace (a method that keeps none, or a hit that did not ask for one) has
// none.
func ArtefactsOf(tr *core.Trace) Artefacts {
	if tr == nil {
		return Artefacts{}
	}
	a := Artefacts{
		Stages:     append([]exec.Span(nil), tr.Stages...),
		PseudoCode: tr.PseudoCode,
		Gp:         tr.Gp.Strings(),
		Gg:         tr.Gg.Strings(),
		Gf:         tr.Gf.Strings(),
	}
	if tr.PseudoErr != nil {
		a.PseudoErr = tr.PseudoErr.Error()
	}
	for _, sc := range tr.Kept {
		a.Kept = append(a.Kept, KeptSubject{
			Subject: sc.Subject, Confidence: sc.Confidence, Triples: sc.Triples,
		})
	}
	return a
}

// Stamp returns a copy of the record with its identity assigned: the
// store-sequence ID and, when t is non-zero, the RFC3339Nano wall time.
func (r Record) Stamp(id string, t time.Time) Record {
	r.ID = id
	if !t.IsZero() {
		r.Time = t.UTC().Format(time.RFC3339Nano)
	}
	return r
}
