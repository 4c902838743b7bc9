package answer

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/vecstore"
)

// Substrate provides versioned, consistent (store, index) snapshots — the
// live-ingest contract implemented by internal/substrate's Manager. Each
// Resolve call returns one immutable view plus its epoch; a method that
// resolves once per query is guaranteed a consistent substrate for the
// whole run, even while ingests and compactions swap the live snapshot.
type Substrate interface {
	Resolve() (kg.Reader, vecstore.Searcher, uint64)
}

// Deps are the substrates a method may need. Every method needs a Client;
// the registry validates the rest per method (see registration).
type Deps struct {
	// Client is the LLM backend. Required by every method.
	Client llm.Client
	// Store is the KG triple view (ToG exploration, pipeline gold-graph
	// assembly).
	Store kg.Reader
	// Index is the vector index over the store (RAG, pipeline semantic
	// query).
	Index vecstore.Searcher
	// Encoder embeds text consistently with the index. No built-in method
	// reads it; it stays while the benchmark rig still sets it.
	Encoder *embed.Encoder
	// Substrate, when set, supplies Store and Index per query from the
	// live snapshot chain: every Answer call resolves one snapshot and
	// runs end-to-end against it, overriding any statically-bound Store
	// and Index above. Methods needing a store or index are satisfied by
	// a Substrate at construction time. It must keep triple IDs stable for
	// its lifetime — a read log names triples by ID.
	Substrate Substrate
	// Prompts is the versioned prompt registry queries render from; New
	// picks the shared embedded defaults (prompts.Default) when it is nil.
	// Every Answer call resolves one immutable view (active versions plus
	// the query's PromptVersions overrides) and hands it to the run, so a
	// hot reload mid-query can never mix prompt versions within one run.
	Prompts *prompts.Registry
}

// Options collects the per-method configuration an Answerer is built with.
// Construct through functional options to New; zero values mean the
// paper's defaults.
type Options struct {
	// Core configures pipeline-backed methods. The baselines run with
	// their package defaults, tuned per request through Query.Overrides.
	Core core.Config
	// Model labels results for attribution; defaults to Client.Name().
	Model string
}

// Option mutates Options (the functional-options pattern).
type Option func(*Options)

// WithCoreConfig sets the pipeline configuration for "ours"/"ours-gp".
func WithCoreConfig(cfg core.Config) Option { return func(o *Options) { o.Core = cfg } }

// WithModelLabel overrides the model name reported in results.
func WithModelLabel(name string) Option { return func(o *Options) { o.Model = name } }

// run is one query's resolved inputs, built once by Answer and handed to
// the method: every stage of the run reads its client, substrate and
// prompts from here and nowhere else.
type run struct {
	// client is the query's counting client: it meters every LLM call of
	// the run and enforces its token budget.
	client *llm.Counting
	// store and index are the one snapshot the query resolved, behind the
	// read recorders when a read log was asked for.
	store kg.Reader
	index vecstore.Searcher
	// view is the prompt set every LLM call of the run renders from.
	view *prompts.View
	opts Options
	q    Query
}

// registration declares one method of the table (builtin.go).
type registration struct {
	// Name is the canonical identifier (lower-case, e.g. "cot").
	Name string
	// Aliases resolve to this method too (e.g. "pgakv" -> "ours").
	Aliases []string
	// Description is a one-line human-readable summary.
	Description string
	// NeedsStore / NeedsIndex are validated against Deps at construction
	// time so misconfiguration fails fast, not mid-query.
	NeedsStore bool
	NeedsIndex bool
	// Run is the implementation: answer one query. The returned trace is
	// optional.
	Run func(ctx context.Context, r *run) (string, *core.Trace, error)
}

// Names returns the canonical method names in table order.
func Names() []string {
	names := make([]string, len(registrations))
	for i, r := range registrations {
		names[i] = r.Name
	}
	return names
}

// Describe returns the one-line description of a method (or alias) and
// whether it is known.
func Describe(name string) (string, bool) {
	r, ok := lookup(name)
	if !ok {
		return "", false
	}
	return r.Description, true
}

// lookup resolves a name or alias, case-insensitively.
func lookup(name string) (*registration, bool) {
	for i := range registrations {
		r := &registrations[i]
		if strings.EqualFold(r.Name, name) {
			return r, true
		}
		for _, alias := range r.Aliases {
			if strings.EqualFold(alias, name) {
				return r, true
			}
		}
	}
	return nil, false
}

// New builds the named method over the given dependencies. The name is
// case-insensitive and may be an alias. Missing dependencies fail here,
// with a typed *UnknownMethodError for names the registry does not know.
func New(name string, deps Deps, opts ...Option) (Answerer, error) {
	reg, ok := lookup(name)
	if !ok {
		return nil, &UnknownMethodError{Name: name}
	}
	if deps.Client == nil {
		return nil, fmt.Errorf("answer: method %q needs an LLM client", reg.Name)
	}
	if reg.NeedsStore && deps.Store == nil && deps.Substrate == nil {
		return nil, fmt.Errorf("answer: method %q needs a KG store", reg.Name)
	}
	if reg.NeedsIndex && deps.Index == nil && deps.Substrate == nil {
		return nil, fmt.Errorf("answer: method %q needs a vector index", reg.Name)
	}
	o := Options{Core: core.DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	if o.Model == "" {
		o.Model = deps.Client.Name()
	}
	if deps.Prompts == nil {
		deps.Prompts = prompts.Default()
	}
	sub := deps.Substrate
	if sub == nil {
		sub = static{deps.Store, deps.Index}
	}
	return &method{reg: reg, deps: deps, opts: o, sub: sub}, nil
}

// method binds a registration to dependencies and options; it is the
// concrete Answerer every registry method shares.
type method struct {
	reg  *registration
	deps Deps
	opts Options
	// sub is what every run resolves its store and index from: the
	// Substrate, or the static pair as one.
	sub Substrate
}

// Name implements Answerer.
func (m *method) Name() string { return m.reg.Name }

// Answer implements Answerer: validate, wrap the client for usage
// accounting, run the method, assemble the uniform result. On a failed run
// the result still carries the usage actually spent and the partial trace
// (with stage spans up to the failure), so serving layers can meter and
// attribute errors per stage.
func (m *method) Answer(ctx context.Context, q Query) (Result, error) {
	if strings.TrimSpace(q.Text) == "" {
		return Result{}, &InvalidQueryError{Reason: "empty question text"}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Resolve the prompt view once, strictly: a bad version override is an
	// invalid query, and handing the run this one view keeps every stage
	// on one consistent prompt set even through a hot reload.
	view, verr := m.deps.Prompts.Resolve(q.PromptVersions)
	if verr != nil {
		return Result{}, &InvalidQueryError{Reason: verr.Error()}
	}
	// The counter enforces the query's token budget, so refused calls
	// never count as usage.
	budget := 0
	if q.Overrides.TokenBudget != nil {
		budget = *q.Overrides.TokenBudget
	}
	r := &run{client: llm.NewCounting(m.deps.Client, budget), view: view, opts: m.opts, q: q}
	// One resolve per query: the whole run — retrieval, pruning,
	// verification — sees this snapshot, no matter how many swaps happen
	// underneath it.
	var epoch uint64
	r.store, r.index, epoch = m.sub.Resolve()
	var rec *recorder
	if wantsReadLog(ctx) {
		rec = &recorder{}
		if r.store != nil {
			r.store = recordingReader{r.store, rec}
		}
		if r.index != nil {
			r.index = recordingSearcher{r.index, rec}
		}
	}

	start := time.Now()
	text, trace, err := m.reg.Run(ctx, r)
	calls, promptTokens, completionTokens := r.client.Usage()
	var reads *Reads
	if rec != nil && err == nil {
		reads = rec.reads(m.sub, m.deps.Prompts, view.Fingerprint())
	}
	return Result{
		Answer:           text,
		Method:           m.reg.Name,
		Model:            m.opts.Model,
		Epoch:            epoch,
		Elapsed:          time.Since(start),
		LLMCalls:         calls,
		PromptTokens:     promptTokens,
		CompletionTokens: completionTokens,
		PromptVersions:   view.Versions(),
		Trace:            trace,
		Reads:            reads,
	}, err
}
