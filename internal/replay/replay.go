package replay

import (
	"context"
	"fmt"
	"time"

	"repro/internal/answer"
	"repro/internal/datasets"
	"repro/internal/kg"
	"repro/internal/node"
	"repro/internal/trace"
)

// RecordOptions configure suite recording.
type RecordOptions struct {
	// Seed pins the world/model seed (also stamped into the suite meta).
	Seed int64
	// Quick records against the small test-scale environment.
	Quick bool
	// Methods lists the registry methods to record; empty records every
	// method of the registry (answer.Names).
	Methods []string
	// Model is the model label (default node.ModelGPT35).
	Model string
	// PerDataset caps how many questions of each dataset enter the suite
	// (0 = all). The committed CI suite keeps this small.
	PerDataset int
	// Note is stored in the suite meta as provenance.
	Note string
}

// RunOption adjusts the replay node without touching the suite pin
// (seed/scale stay the suite's own).
type RunOption func(*node.Config)

// WithANN routes the replayed suite's vector retrieval through the HNSW
// layer (ef = search beam, 0 = default). Replay artifacts are
// deterministic, so diffing an ANN run against an exact-scan baseline
// proves the approximate path changes nothing the suite can observe.
func WithANN(ef int) RunOption {
	return func(cfg *node.Config) {
		cfg.Substrate.ANN.Enabled = true
		cfg.Substrate.ANN.EfSearch = ef
	}
}

// pinnedConfig is the node and dataset config for a (seed, quick) pin.
// The answer cache stays off and no scheduler is configured: every
// replayed request must re-run its method for real, under no admission
// queueing.
func pinnedConfig(seed int64, quick bool) (node.Config, datasets.Config) {
	cfg := node.ConfigFor(quick)
	cfg.WorldSeed = seed
	data := datasets.DefaultConfig()
	if quick {
		data = datasets.QuickConfig()
	}
	return cfg, data
}

// RecordSuite answers every (dataset question, method) cell sequentially
// against a fresh environment and returns the suite: one Record per cell,
// carrying the question's gold material and deterministic IDs but no wall
// time. Recording is the only place answers enter the suite — replay
// never trusts them, it re-runs and re-scores.
func RecordSuite(ctx context.Context, opts RecordOptions) (Suite, error) {
	if opts.Model == "" {
		opts.Model = node.ModelGPT35
	}
	if len(opts.Methods) == 0 {
		opts.Methods = answer.Names()
	}
	cfg, data := pinnedConfig(opts.Seed, opts.Quick)
	env, err := node.New(cfg)
	if err != nil {
		return Suite{}, fmt.Errorf("replay: %w", err)
	}
	defer env.Close()
	suite, err := datasets.Build(env.World, data)
	if err != nil {
		return Suite{}, fmt.Errorf("replay: %w", err)
	}

	s := Suite{Meta: SuiteMeta{
		Version: SuiteVersion, Seed: opts.Seed, Quick: opts.Quick, Note: opts.Note,
		// Pin the active prompt versions so replaying the suite restores
		// them even after prompt bumps land in the defaults.
		PromptVersions: env.Prompts.View().Versions(),
	}}
	for _, ds := range suite.Datasets() {
		questions := ds.Questions
		if opts.PerDataset > 0 && len(questions) > opts.PerDataset {
			questions = questions[:opts.PerDataset]
		}
		src := datasets.DefaultSource(ds.Name)
		for _, method := range opts.Methods {
			for _, q := range questions {
				rec, err := answerOne(ctx, env, datasets.Query(method, opts.Model, q), src, q.Golds, q.Refs)
				if err != nil {
					return Suite{}, fmt.Errorf("replay: %w", err)
				}
				// Zero time: suite records deliberately carry no wall time.
				rec = rec.Stamp(fmt.Sprintf("r%06d", len(s.Records)+1), time.Time{})
				s.Records = append(s.Records, rec)
			}
		}
	}
	if len(s.Records) == 0 {
		return Suite{}, fmt.Errorf("replay: recorded an empty suite (no questions)")
	}
	return s, nil
}

// answerOne runs one query on the node and builds its trace record with
// the gold material attached. Method errors are recorded, not fatal — a
// suite can legitimately pin a failing cell.
func answerOne(ctx context.Context, n *node.Node, query answer.Query, src kg.Source, golds, refs []string) (trace.Record, error) {
	ans, err := n.Answerer(query.Method, query.Model, src)
	if err != nil {
		return trace.Record{}, err
	}
	res, runErr := ans.Answer(ctx, query)
	if ctx.Err() != nil {
		return trace.Record{}, ctx.Err()
	}
	return trace.Build(query, res, runErr, trace.Meta{KG: src.String(), Golds: golds, Refs: refs}), nil
}

// Run replays a recorded suite against the current binary: a fresh node
// pinned to the suite's seed and scale (the suite carries its own
// questions, so no datasets are built), every record re-run
// sequentially and re-scored against its recorded gold material. The
// returned artifact is deterministic — see the package comment for the
// contract.
func Run(ctx context.Context, s Suite, opts ...RunOption) (Artifact, error) {
	cfg, _ := pinnedConfig(s.Meta.Seed, s.Meta.Quick)
	for _, opt := range opts {
		opt(&cfg)
	}
	env, err := node.New(cfg)
	if err != nil {
		return Artifact{}, fmt.Errorf("replay: %w", err)
	}
	defer env.Close()
	// Restore the prompt versions the suite was recorded under: a prompt
	// bump must show up as an explicit meta change, never as a silent
	// replay drift.
	if len(s.Meta.PromptVersions) > 0 {
		if err := env.Prompts.ApplyVersions(s.Meta.PromptVersions); err != nil {
			return Artifact{}, fmt.Errorf("replay: restoring suite prompt versions: %w", err)
		}
	}

	agg := map[string]*methodAgg{}
	for i, rec := range s.Records {
		src, err := kg.ParseSource(rec.KG)
		if err != nil || src == kg.SourceUnknown {
			return Artifact{}, fmt.Errorf("replay: record %s: bad kg %q", rec.ID, rec.KG)
		}
		query := answer.Query{
			Text:    rec.Question,
			Method:  rec.Method,
			Model:   rec.Model,
			Open:    rec.Open,
			Anchors: rec.Anchors,
		}
		cur, err := answerOne(ctx, env, query, src, rec.Golds, rec.Refs)
		if err != nil {
			return Artifact{}, fmt.Errorf("replay: record %s: %w", rec.ID, err)
		}

		a := agg[rec.Method]
		if a == nil {
			a = newMethodAgg()
			agg[rec.Method] = a
		}
		a.add(s.Records[i], cur)
	}
	return buildArtifact(s.Meta, agg), nil
}
