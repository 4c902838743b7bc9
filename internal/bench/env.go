// Package bench is the experiment harness: it builds a serving node
// (internal/node: world, KG stores in both schemas, vector indexes,
// simulated models), adds the question datasets, and regenerates every
// table and figure of the paper's evaluation section (cmd/benchrun's
// -experiment flag is the index).
//
// Method execution goes through the unified answer registry: every cell is
// an answer.Batch over the dataset with the harness's worker budget, so
// the bench exercises exactly the surface production callers use.
package bench

import (
	"context"
	"fmt"

	"repro/internal/answer"
	"repro/internal/datasets"
	"repro/internal/kg"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/qa"
)

// Model identifiers used throughout the harness.
const (
	ModelGPT35 = node.ModelGPT35
	ModelGPT4  = node.ModelGPT4
)

// Method identifiers: the registry names of internal/answer, capitalised
// as the paper's tables print them (answer.New is case-insensitive).
const (
	MethodToG    = "ToG"
	MethodIO     = "IO"
	MethodCoT    = "CoT"
	MethodSC     = "SC"
	MethodRAG    = "RAG"
	MethodOurs   = "Ours"
	MethodOursGp = "Ours-Gp" // ablation: answer from the raw pseudo-graph
)

// EnvConfig sizes the environment: the serving node plus the question
// datasets evaluated on it.
type EnvConfig struct {
	node.Config
	Data datasets.Config
	// Workers is the per-cell evaluation parallelism (answer.Batch
	// concurrency).
	Workers int
}

// DefaultEnvConfig returns the paper-scale environment.
func DefaultEnvConfig() EnvConfig {
	return EnvConfig{Config: node.ConfigFor(false), Data: datasets.DefaultConfig(), Workers: 8}
}

// QuickEnvConfig returns a small environment for unit tests.
func QuickEnvConfig() EnvConfig {
	return EnvConfig{
		Config: node.ConfigFor(true),
		Data: datasets.Config{Seed: 7, SimpleN: 60, QALDN: 40, NatureN: 20,
			TemporalN: 12, AggregationN: 12, AdversarialN: 8, NoisyN: 12},
		Workers: 8,
	}
}

// Env is the assembled experiment environment: a serving node (world,
// substrates, models, prompt registry, serving stack — everything
// env.Answerer, env.Substrates… reach) plus the datasets. Every method
// runs through env.Answerer.
type Env struct {
	*node.Node
	// Cfg shadows the node's own: the same normalised node config plus
	// the harness-only fields, so an Env can be rebuilt from it.
	Cfg   EnvConfig
	Suite *datasets.Suite
}

// NewEnv builds the environment deterministically.
func NewEnv(cfg EnvConfig) (*Env, error) {
	n, err := node.New(cfg.Config)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	suite, err := datasets.Build(n.World, cfg.Data)
	if err != nil {
		n.Close()
		return nil, fmt.Errorf("bench: datasets: %w", err)
	}
	cfg.Config = n.Cfg
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	return &Env{Node: n, Cfg: cfg, Suite: suite}, nil
}

// Cell is one (method, model, dataset, source) evaluation result.
type Cell struct {
	Method  string
	Model   string
	Dataset string
	Source  kg.Source
	// Score is Hit@1 or ROUGE-L-f1 as a percentage.
	Score float64
	N     int
}

// Query maps a dataset question onto the unified request shape.
func Query(method, model string, q qa.Question) answer.Query {
	anchors := []string{q.Intent.Subject}
	if q.Intent.Subject2 != "" {
		anchors = append(anchors, q.Intent.Subject2)
	}
	return answer.Query{
		Text:    q.Text,
		Method:  method,
		Model:   model,
		Open:    q.Open(),
		Anchors: anchors,
	}
}

// score evaluates one answer against the question's gold material.
func score(q qa.Question, answer string) float64 {
	if q.Open() {
		return metrics.RougeLMulti(answer, q.Refs)
	}
	return metrics.Hit1(answer, q.Golds)
}

// Run evaluates a method×model over a dataset against the given KG source
// and returns the aggregate cell. The context bounds the whole cell:
// cancellation aborts in-flight questions and skips the rest.
func (e *Env) Run(ctx context.Context, method, model string, ds *qa.Dataset, src kg.Source) (Cell, error) {
	ans, err := e.Answerer(method, model, src)
	if err != nil {
		return Cell{}, err
	}
	queries := make([]answer.Query, len(ds.Questions))
	for i, q := range ds.Questions {
		queries[i] = Query(method, model, q)
	}
	items := answer.Batch(ctx, ans, queries, answer.Concurrency(e.Cfg.Workers))
	if err := answer.FirstError(items); err != nil {
		return Cell{}, fmt.Errorf("bench: %s/%s on %s: %w", method, model, ds.Name, err)
	}
	scores := make([]float64, len(items))
	for i, item := range items {
		scores[i] = score(ds.Questions[i], item.Result.Answer)
	}
	return Cell{
		Method:  method,
		Model:   model,
		Dataset: ds.Name,
		Source:  src,
		Score:   metrics.Mean(scores) * 100,
		N:       len(scores),
	}, nil
}

// DefaultSource returns the KG source a dataset is evaluated against by
// default: SimpleQuestions is Freebase-based in the paper, the others use
// Wikidata.
func DefaultSource(datasetName string) kg.Source {
	if datasetName == "SimpleQuestions" {
		return kg.SourceFreebase
	}
	return kg.SourceWikidata
}
