package answer

import (
	"context"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/core/exec"
	"repro/internal/llm"
)

// coreConfig applies per-request overrides to the configured pipeline
// settings. Prompts come from the view Answer pins into the context.
func coreConfig(o Options, q Query) core.Config {
	cfg := o.Core
	if q.Overrides.Temperature != nil {
		cfg.Temperature = *q.Overrides.Temperature
	}
	if q.Overrides.TopK != nil {
		cfg.TopK = *q.Overrides.TopK
	}
	return cfg
}

// stageBuilder constructs a baseline composition from the validated deps.
type stageBuilder func(d Deps, q Query, client llm.Client) []exec.Stage[baselines.State]

// runBaseline executes a baseline stage composition with per-stage usage
// accounting: every method returns a trace carrying its stage spans —
// the same observability surface the pipeline-backed methods have. The
// partial trace (spans up to the failing stage) survives errors.
func runBaseline(build stageBuilder) RunFunc {
	return func(ctx context.Context, d Deps, o Options, q Query) (string, *core.Trace, error) {
		// The registry hands every method a *llm.Counting client; one
		// counting layer serves span diffs and query totals alike.
		counter := d.Client.(*llm.Counting)
		stages := build(d, q, counter)
		st := baselines.State{Question: q.Text, Open: q.Open, Anchors: q.Anchors}
		spans, err := exec.Run(ctx, &st,
			exec.Options{DefaultTimeout: o.Core.StageTimeout, Usage: counter.Usage}, stages...)
		tr := &core.Trace{Question: q.Text, Stages: spans}
		tr.LLMCalls, _, _ = counter.Usage()
		if err != nil {
			return "", tr, err
		}
		return st.Answer, tr, nil
	}
}

// The built-in registrations: the paper's method (plus its Gp-only
// ablation) and the five Table II baselines, in the paper's table order.
// Every method — pipeline and baseline alike — runs as a composition of
// exec stages, so answer traces uniformly expose per-stage spans.
func init() {
	MustRegister(Registration{
		Name:        "ours",
		Aliases:     []string{"pgakv", "pg-akv"},
		Description: "PG&AKV: pseudo-graph generation + atomic knowledge verification (the paper's method)",
		NeedsStore:  true,
		NeedsIndex:  true,
		Run: func(ctx context.Context, d Deps, o Options, q Query) (string, *core.Trace, error) {
			p, err := core.New(d.Client, d.Store, d.Index, coreConfig(o, q))
			if err != nil {
				return "", nil, err
			}
			res, err := p.Answer(ctx, q.Text)
			if err != nil {
				return "", &res.Trace, err
			}
			return res.Answer, &res.Trace, nil
		},
	})
	MustRegister(Registration{
		Name:        "ours-gp",
		Aliases:     []string{"pgakv-gp"},
		Description: "PG&AKV ablation: answer from the raw pseudo-graph Gp, skipping verification",
		NeedsStore:  true,
		NeedsIndex:  true,
		Run: func(ctx context.Context, d Deps, o Options, q Query) (string, *core.Trace, error) {
			p, err := core.New(d.Client, d.Store, d.Index, coreConfig(o, q))
			if err != nil {
				return "", nil, err
			}
			res, err := p.AnswerPseudoOnly(ctx, q.Text)
			if err != nil {
				return "", &res.Trace, err
			}
			return res.Answer, &res.Trace, nil
		},
	})
	MustRegister(Registration{
		Name:        "tog",
		Description: "Think-on-Graph: QID-anchored KG exploration with LLM relation pruning",
		NeedsStore:  true,
		Run: func(ctx context.Context, d Deps, o Options, q Query) (string, *core.Trace, error) {
			if len(q.Anchors) == 0 {
				return "", nil, &InvalidQueryError{Reason: "method tog needs anchor entities"}
			}
			return runBaseline(func(d Deps, q Query, client llm.Client) []exec.Stage[baselines.State] {
				return baselines.ToGStages(client, d.Store, baselines.DefaultToGConfig())
			})(ctx, d, o, q)
		},
	})
	MustRegister(Registration{
		Name:        "io",
		Description: "standard input-output prompting, 6 in-context examples",
		Run: runBaseline(func(d Deps, q Query, client llm.Client) []exec.Stage[baselines.State] {
			return baselines.IOStages(client)
		}),
	})
	MustRegister(Registration{
		Name:        "cot",
		Description: "chain-of-thought prompting",
		Run: runBaseline(func(d Deps, q Query, client llm.Client) []exec.Stage[baselines.State] {
			return baselines.CoTStages(client)
		}),
	})
	MustRegister(Registration{
		Name:        "sc",
		Description: fmt.Sprintf("self-consistency: %d CoT samples at temperature %.1f, voted", baselines.DefaultSCConfig().Samples, baselines.DefaultSCConfig().Temperature),
		Run: runBaseline(func(d Deps, q Query, client llm.Client) []exec.Stage[baselines.State] {
			cfg := baselines.DefaultSCConfig()
			if q.Overrides.Samples != nil {
				cfg.Samples = *q.Overrides.Samples
			}
			if q.Overrides.Temperature != nil {
				cfg.Temperature = *q.Overrides.Temperature
			}
			return baselines.SCStages(client, cfg)
		}),
	})
	MustRegister(Registration{
		Name:        "rag",
		Description: "question-level retrieval over the semantic KG",
		NeedsIndex:  true,
		Run: runBaseline(func(d Deps, q Query, client llm.Client) []exec.Stage[baselines.State] {
			cfg := baselines.DefaultRAGConfig()
			if q.Overrides.TopK != nil {
				cfg.TopK = *q.Overrides.TopK
			}
			return baselines.RAGStages(client, d.Index, cfg)
		}),
	})
}
