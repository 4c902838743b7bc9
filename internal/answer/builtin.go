package answer

import (
	"context"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/core/exec"
	"repro/internal/llm"
	"repro/internal/prompts"
)

// runPipeline executes a PG&AKV composition — Pipeline.Answer or its
// Gp-only ablation — over the run's snapshot, with the query's overrides
// applied to the configured pipeline settings. The partial trace (spans
// up to the failing stage) survives errors.
func runPipeline(compose func(*core.Pipeline, context.Context, *llm.Counting, *prompts.View, string) (core.Result, error)) func(context.Context, *run) (string, *core.Trace, error) {
	return func(ctx context.Context, r *run) (string, *core.Trace, error) {
		cfg := r.opts.Core
		if r.q.Overrides.Temperature != nil {
			cfg.Temperature = *r.q.Overrides.Temperature
		}
		if r.q.Overrides.TopK != nil {
			cfg.TopK = *r.q.Overrides.TopK
		}
		p, err := core.New(r.store, r.index, cfg)
		if err != nil {
			return "", nil, err
		}
		res, err := compose(p, ctx, r.client, r.view, r.q.Text)
		return res.Answer, &res.Trace, err
	}
}

// runBaseline executes a baseline stage composition with per-stage usage
// accounting: every method returns a trace carrying its stage spans —
// the same observability surface the pipeline-backed methods have. The
// partial trace (spans up to the failing stage) survives errors.
func runBaseline(build func(r *run) []exec.Stage[baselines.State]) func(context.Context, *run) (string, *core.Trace, error) {
	return func(ctx context.Context, r *run) (string, *core.Trace, error) {
		st := baselines.State{Question: r.q.Text, Open: r.q.Open, Anchors: r.q.Anchors, View: r.view}
		spans, err := exec.Run(ctx, &st,
			exec.Options{DefaultTimeout: r.opts.Core.StageTimeout, Usage: r.client.Usage}, build(r)...)
		tr := &core.Trace{Question: r.q.Text, Stages: spans}
		if err != nil {
			return "", tr, err
		}
		return st.Answer, tr, nil
	}
}

// registrations is the method table: the paper's method (plus its
// Gp-only ablation) and the five Table II baselines, in the paper's table
// order. Names are lower-case; names and aliases are unique and matched
// case-insensitively. Every method — pipeline and baseline alike — runs
// as a composition of exec stages, so answer traces uniformly expose
// per-stage spans.
var registrations = []registration{
	{
		Name:        "ours",
		Aliases:     []string{"pgakv", "pg-akv"},
		Description: "PG&AKV: pseudo-graph generation + atomic knowledge verification (the paper's method)",
		NeedsStore:  true,
		NeedsIndex:  true,
		Run:         runPipeline((*core.Pipeline).Answer),
	},
	{
		Name:        "ours-gp",
		Aliases:     []string{"pgakv-gp"},
		Description: "PG&AKV ablation: answer from the raw pseudo-graph Gp, skipping verification",
		NeedsStore:  true,
		NeedsIndex:  true,
		Run:         runPipeline((*core.Pipeline).AnswerPseudoOnly),
	},
	{
		Name:        "tog",
		Description: "Think-on-Graph: QID-anchored KG exploration with LLM relation pruning",
		NeedsStore:  true,
		Run: func(ctx context.Context, r *run) (string, *core.Trace, error) {
			if len(r.q.Anchors) == 0 {
				return "", nil, &InvalidQueryError{Reason: "method tog needs anchor entities"}
			}
			return runBaseline(func(r *run) []exec.Stage[baselines.State] {
				return baselines.ToGStages(r.client, r.store, baselines.DefaultToGConfig())
			})(ctx, r)
		},
	},
	{
		Name:        "io",
		Description: "standard input-output prompting, 6 in-context examples",
		Run: runBaseline(func(r *run) []exec.Stage[baselines.State] {
			return baselines.IOStages(r.client)
		}),
	},
	{
		Name:        "cot",
		Description: "chain-of-thought prompting",
		Run: runBaseline(func(r *run) []exec.Stage[baselines.State] {
			return baselines.CoTStages(r.client)
		}),
	},
	{
		Name:        "sc",
		Description: fmt.Sprintf("self-consistency: %d CoT samples at temperature %.1f, voted", baselines.DefaultSCConfig().Samples, baselines.DefaultSCConfig().Temperature),
		Run: runBaseline(func(r *run) []exec.Stage[baselines.State] {
			cfg := baselines.DefaultSCConfig()
			if r.q.Overrides.Samples != nil {
				cfg.Samples = *r.q.Overrides.Samples
			}
			if r.q.Overrides.Temperature != nil {
				cfg.Temperature = *r.q.Overrides.Temperature
			}
			return baselines.SCStages(r.client, cfg)
		}),
	},
	{
		Name:        "rag",
		Description: "question-level retrieval over the semantic KG",
		NeedsIndex:  true,
		Run: runBaseline(func(r *run) []exec.Stage[baselines.State] {
			cfg := baselines.DefaultRAGConfig()
			if r.q.Overrides.TopK != nil {
				cfg.TopK = *r.q.Overrides.TopK
			}
			return baselines.RAGStages(r.client, r.index, cfg)
		}),
	},
}
