// Package answer is the unified method surface of the repository: every
// QA method — the paper's PG&AKV pipeline and the five baselines of
// Table II — is exposed as the same context-aware Answerer contract, built
// by name from one method table (New) and runnable in bulk with Batch.
//
// The package exists so that callers (the bench harness, the CLI tools,
// the HTTP server, and any future scaling layer) speak one stable API
// instead of hand-wiring each method's ad-hoc signature:
//
//	ans, err := answer.New("ours", deps)             // or "io", "cot", ...
//	res, err := ans.Answer(ctx, answer.Query{Text: "Where was X born?"})
//
// All methods honour context cancellation and deadlines, report uniform
// usage accounting (LLM calls, token estimates, wall time), and return
// typed errors that carry their failure class (internal/failure).
//
// # One run per query
//
// Answer resolves, once per query, the counting client (usage and token
// budget), one substrate snapshot and one prompt view (active versions
// plus PromptVersions overrides), and hands them to the method as one
// value that every stage reads: no LLM call of a run renders from another
// prompt set, whatever reloads happen while it runs. The context carries
// only what crosses the Answerer interface from outside: cancellation,
// WithReadLog and exec.WithSpanObserver.
//
// # The read-log contract
//
// A method reads the knowledge substrate only through its run's store and
// index, and those are the one snapshot Answer resolved for the query.
// The two interfaces hold only the reads methods make — kg.Reader's
// Subject, SubjectRelation, HasSubject and FindSubjectFold, and
// vecstore.Searcher's BatchSearchWith — and each read's result is a
// function of the snapshot's triple set. That makes every run replayable:
// asked through WithReadLog, Answer wraps the two with recorders and
// returns every read and its result as Result.Reads, and Reads.Revalidate
// re-issues them against a later snapshot. Identical reads under an
// identical prompt view give identical prompts, identical prompts give
// identical completions, so a log that replays exactly proves the run
// would answer the same there — the proof the serving cache keeps an
// answer across an epoch change on. A method that reached the substrate
// any other way would break the proof silently.
//
// # The incremental rule
//
// A replay that succeeded against an arena view reports the view's token
// (vecstore.Token): its row count, its watermark, plus its graph's ID
// under ANN. The caller passes it to the next Revalidate. Rows are only
// appended and keep their positions, and a view's top k is a function of
// its rows in order (vecstore's block rule), so a live view under the
// same graph that holds at least as many rows is the replayed view's rows
// followed by new ones. The replay then searches the
// rows past the watermark only (vecstore.Suffix), and per query a logged
// top-k list:
//
//   - stands when the suffix has no hit, or the list is full and the
//     suffix's best hit scores below its k-th entry;
//   - is stale when the suffix has a hit and the list is short of k, or
//     the best hit scores above the k-th entry;
//   - is searched in full on the whole view otherwise: the block holding
//     the watermark changed from scanning every row to filtering for the
//     query, or the best hit ties the k-th entry's score.
//
// This is exact (the vecstore package comment's watermark). A view with
// fewer rows or another graph gets a full replay. A fill carries a token
// too (Reads.At): its run searched one arena view and logged that view's
// top k, the state a full replay against it would leave, so an entry's
// first replay is already incremental. A run that made no search, or
// searched an index that is no arena view, carries none and meets a full
// replay first.
package answer

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
)

// Query is one question for an Answerer, with optional per-request
// overrides. Method and Model are routing labels: a concrete Answerer is
// already bound to a method and model, but servers and batch reports carry
// them through for dispatch and attribution.
type Query struct {
	// Text is the question. Required.
	Text string
	// Method optionally names the registry method this query targets
	// (used by dispatching layers; informational on a bound Answerer).
	Method string
	// Model optionally labels the backing model for attribution.
	Model string
	// Open marks an open-ended question (affects Self-Consistency
	// aggregation: medoid instead of majority vote).
	Open bool
	// Anchors are the gold topic entities for anchor-based methods (ToG).
	Anchors []string
	// PromptVersions pins prompt versions for this query (prompt name ->
	// version string), the per-request A/B override. Unset names use the
	// registry's active versions. Unknown names or versions fail the query
	// with ClassInvalidQuery before any work starts.
	PromptVersions map[string]string
	// Overrides tune a single request without rebuilding the Answerer.
	Overrides Overrides
}

// Overrides are per-request knobs; nil fields keep the Answerer's
// configured defaults. Methods ignore overrides that do not apply to them.
type Overrides struct {
	// Temperature overrides the sampling temperature where the method
	// samples (pipeline LLM calls, SC samples).
	Temperature *float64
	// TopK overrides retrieval depth (RAG question-level retrieval, the
	// pipeline's per-triple semantic query).
	TopK *int
	// Samples overrides the Self-Consistency sample count.
	Samples *int
	// TokenBudget caps the total tokens (prompt + completion) the query's
	// LLM calls may spend; the query's llm.Counting refuses calls past it
	// with a failure.Budget error, with or without a scheduler. nil or
	// <= 0 means unlimited.
	TokenBudget *int
}

// Result is the uniform outcome of one answered query.
type Result struct {
	// Answer is the method's final answer text.
	Answer string
	// Method and Model identify what produced the answer.
	Method string
	Model  string
	// Epoch is the substrate snapshot the query ran against (0 when the
	// Answerer is bound to a static store/index rather than a Substrate).
	Epoch uint64
	// Elapsed is the wall-clock time of the run.
	Elapsed time.Duration
	// LLMCalls / PromptTokens / CompletionTokens account every model call
	// made on behalf of this query.
	LLMCalls         int
	PromptTokens     int
	CompletionTokens int
	// PromptVersions records the exact prompt versions the query rendered
	// with (prompt name -> version string) — the provenance trace records
	// pin and replay restores. It is the prompt view's own map
	// (prompts.View.Versions): immutable, so copies of a Result share it.
	PromptVersions map[string]string
	// Trace carries the run's intermediate artefacts and per-stage spans.
	// Pipeline-backed methods ("ours", "ours-gp") fill the full graph
	// trace; baseline methods carry their stage spans. On a failed run the
	// partial trace (spans up to and including the failing stage) is still
	// returned alongside the error.
	Trace *core.Trace
	// Reads is the run's substrate read log, present on every successful
	// run whose context asked for one (WithReadLog). Immutable, so copies
	// of a Result share it.
	Reads *Reads
}

// Clone returns a copy safe to hand to an independent caller: the trace —
// the only mutable reference a Result carries — is deep-copied, so caches
// and their clients can never corrupt each other through shared graphs.
// PromptVersions and Reads are immutable and shared.
func (r Result) Clone() Result {
	out := r
	out.Trace = r.Trace.Clone()
	return out
}

// Answerer is the core contract: one method, bound to its dependencies,
// answering questions under a context.
type Answerer interface {
	// Name returns the canonical registry name of the method.
	Name() string
	// Answer runs the method for one query. Cancellation or deadline
	// expiry of ctx aborts the run at the next LLM call and returns the
	// context's error.
	Answer(ctx context.Context, q Query) (Result, error)
}

// UnknownMethodError reports a name the registry does not know.
type UnknownMethodError struct {
	Name string
}

func (e *UnknownMethodError) Error() string {
	return fmt.Sprintf("answer: unknown method %q (known: %v)", e.Name, Names())
}

// Class implements failure.Classer.
func (e *UnknownMethodError) Class() failure.Class { return failure.UnknownMethod }

// InvalidQueryError reports a malformed query.
type InvalidQueryError struct {
	Reason string
}

func (e *InvalidQueryError) Error() string {
	return "answer: invalid query: " + e.Reason
}

// Class implements failure.Classer.
func (e *InvalidQueryError) Class() failure.Class { return failure.InvalidQuery }
