// Package baselines implements the comparison methods of the paper's
// Table II: IO prompting, Chain-of-Thought, Self-Consistency, question-
// level RAG, and Think-on-Graph (ToG). Each method is a composition of
// typed stages (internal/core/exec) over the same llm.Client and KG
// substrates the PG&AKV pipeline uses, so method differences — not
// plumbing differences — drive the benchmark deltas, and every method
// emits the same per-stage trace spans (latency, LLM usage, sizes) the
// pipeline does.
package baselines

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core/exec"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/prompts"
	"repro/internal/vecstore"
)

// Stage names of the baseline compositions.
const (
	// StageAnswer is the final (for IO/CoT: only) LLM answer generation.
	StageAnswer = "answer"
	// StageSample is Self-Consistency's multi-sample draw.
	StageSample = "sample"
	// StageAggregate is Self-Consistency's vote/medoid fold (no LLM).
	StageAggregate = "aggregate"
	// StageRetrieve is RAG's question-level vector retrieval (no LLM).
	StageRetrieve = "retrieve"
	// StageExplore is ToG's anchored KG exploration with LLM pruning.
	StageExplore = "explore"
)

// State is the shared scratch space a baseline composition runs over: each
// stage reads what earlier stages produced and writes its own artefact.
type State struct {
	Question string
	// Open marks an open-ended question (SC aggregates by medoid instead
	// of majority vote).
	Open bool
	// Anchors are the gold topic entities anchor-based methods start from.
	Anchors []string
	// View is the prompt set every LLM call of the run renders from.
	View *prompts.View

	// Samples holds SC's drawn completions.
	Samples []string
	// Graph is the evidence graph retrieval/exploration stages build.
	Graph *kg.Graph
	// Answer is the composition's final output.
	Answer string
}

// answerStage builds the terminal LLM stage from a prompt constructor.
func answerStage(client llm.Client, build func(s *State) string, wrap string) exec.Stage[State] {
	return exec.Stage[State]{
		Name: StageAnswer,
		Run: func(ctx context.Context, s *State) error {
			resp, err := client.Complete(ctx, llm.Request{Prompt: build(s)})
			if err != nil {
				return fmt.Errorf("baselines: %s: %w", wrap, err)
			}
			s.Answer = resp.Text
			return nil
		},
		InputSize:  func(s *State) int { return len(s.Question) },
		OutputSize: func(s *State) int { return len(s.Answer) },
	}
}

// IOStages is the IO composition: one answer stage with the standard
// input-output prompt (6 in-context examples), no reasoning elicitation.
func IOStages(client llm.Client) []exec.Stage[State] {
	return []exec.Stage[State]{
		answerStage(client, func(s *State) string { return s.View.IO(s.Question) }, "IO"),
	}
}

// CoTStages is the Chain-of-Thought composition.
func CoTStages(client llm.Client) []exec.Stage[State] {
	return []exec.Stage[State]{
		answerStage(client, func(s *State) string { return s.View.CoT(s.Question) }, "CoT"),
	}
}

// SCConfig parameterises Self-Consistency; the paper samples three CoT
// completions at temperature 0.7 and votes.
type SCConfig struct {
	Samples     int
	Temperature float64
}

// DefaultSCConfig returns the paper's SC settings.
func DefaultSCConfig() SCConfig { return SCConfig{Samples: 3, Temperature: 0.7} }

// SCStages is the Self-Consistency composition: a sampling stage that
// draws cfg.Samples CoT completions, then an LLM-free aggregation stage —
// majority vote on the normalised {marked} entity for precise questions,
// pairwise-ROUGE medoid for open ones.
func SCStages(client llm.Client, cfg SCConfig) []exec.Stage[State] {
	if cfg.Samples < 1 {
		cfg = DefaultSCConfig()
	}
	return []exec.Stage[State]{
		{
			Name: StageSample,
			Run: func(ctx context.Context, s *State) error {
				s.Samples = s.Samples[:0]
				for i := 0; i < cfg.Samples; i++ {
					resp, err := client.Complete(ctx, llm.Request{
						Prompt:      s.View.CoT(s.Question),
						Temperature: cfg.Temperature,
						Nonce:       i,
					})
					if err != nil {
						return fmt.Errorf("baselines: SC sample %d: %w", i, err)
					}
					s.Samples = append(s.Samples, resp.Text)
				}
				return nil
			},
			InputSize:  func(s *State) int { return len(s.Question) },
			OutputSize: func(s *State) int { return len(s.Samples) },
		},
		{
			Name: StageAggregate,
			Run: func(ctx context.Context, s *State) error {
				if s.Open {
					s.Answer = scMedoid(s.Samples)
				} else {
					s.Answer = scVote(s.Samples)
				}
				return nil
			},
			InputSize:  func(s *State) int { return len(s.Samples) },
			OutputSize: func(s *State) int { return len(s.Answer) },
		},
	}
}

// scVote picks the majority normalised marked answer; ties break toward
// the earliest sample, mirroring greedy preference.
func scVote(samples []string) string {
	counts := map[string]int{}
	first := map[string]int{}
	for i, s := range samples {
		key := metrics.NormalizeAnswer(metrics.ExtractMarked(s))
		counts[key]++
		if _, ok := first[key]; !ok {
			first[key] = i
		}
	}
	bestKey := ""
	bestCount := -1
	for key, c := range counts {
		if c > bestCount || (c == bestCount && first[key] < first[bestKey]) {
			bestKey = key
			bestCount = c
		}
	}
	return samples[first[bestKey]]
}

// scMedoid picks the sample with the highest mean ROUGE-L-f1 against the
// other samples.
func scMedoid(samples []string) string {
	if len(samples) == 1 {
		return samples[0]
	}
	best := 0
	bestScore := -1.0
	for i := range samples {
		var sum float64
		for j := range samples {
			if i == j {
				continue
			}
			_, _, f1 := metrics.RougeL(samples[i], samples[j])
			sum += f1
		}
		if sum > bestScore {
			bestScore = sum
			best = i
		}
	}
	return samples[best]
}

// RAGConfig parameterises question-level retrieval.
type RAGConfig struct {
	// TopK is how many triples are retrieved for the question.
	TopK int
}

// DefaultRAGConfig returns the standard setting.
func DefaultRAGConfig() RAGConfig { return RAGConfig{TopK: 5} }

// RAGStages is the RAG composition: an LLM-free retrieval stage over the
// *question text* (not pseudo-triples — the method's defining weakness on
// multi-hop questions, where intermediate entities never appear in the
// question), then answer generation from the retrieved triples.
func RAGStages(client llm.Client, index vecstore.Searcher, cfg RAGConfig) []exec.Stage[State] {
	if cfg.TopK <= 0 {
		cfg = DefaultRAGConfig()
	}
	return []exec.Stage[State]{
		{
			Name: StageRetrieve,
			Run: func(ctx context.Context, s *State) error {
				g := &kg.Graph{}
				hits := index.BatchSearchWith(index.Encoder().Encode, []string{s.Question}, cfg.TopK)[0]
				for _, h := range hits {
					g.Add(h.Triple)
				}
				s.Graph = g
				return nil
			},
			InputSize:  func(s *State) int { return len(s.Question) },
			OutputSize: func(s *State) int { return s.Graph.Len() },
		},
		answerStage(client, func(s *State) string {
			return s.View.AnswerFromGraph(s.Question, s.Graph.String())
		}, "RAG"),
	}
}

// ToGConfig parameterises Think-on-Graph exploration.
type ToGConfig struct {
	// Depth is the exploration depth (hops from the anchors).
	Depth int
	// RelBeam is how many relations are kept per entity per hop.
	RelBeam int
	// WidthCap bounds the frontier size.
	WidthCap int
}

// DefaultToGConfig returns the exploration settings used in the benches.
func DefaultToGConfig() ToGConfig { return ToGConfig{Depth: 3, RelBeam: 2, WidthCap: 8} }

// ToGStages is the Think-on-Graph composition: anchored at the gold topic
// entities (the paper notes ToG "leaks the QID" — the anchors are given,
// which is its headline advantage and its generalisation weakness), an
// exploration stage walks the KG asking the LLM to score each candidate
// relation against the question (the original method's LLM-based pruning,
// and its dominant error source), then an answer stage reads the explored
// subgraph.
func ToGStages(client llm.Client, store kg.Reader, cfg ToGConfig) []exec.Stage[State] {
	if cfg.Depth <= 0 {
		cfg = DefaultToGConfig()
	}
	return []exec.Stage[State]{
		{
			Name: StageExplore,
			Run: func(ctx context.Context, s *State) error {
				explored, err := explore(ctx, client, s.View, store, s.Question, s.Anchors, cfg)
				if err != nil {
					return err
				}
				s.Graph = explored
				return nil
			},
			InputSize:  func(s *State) int { return len(s.Anchors) },
			OutputSize: func(s *State) int { return s.Graph.Len() },
		},
		answerStage(client, func(s *State) string {
			return s.View.AnswerFromGraph(s.Question, s.Graph.String())
		}, "ToG"),
	}
}

// explore walks the KG from the anchors, keeping the LLM-pruned relation
// beam per entity per hop, and returns the deduplicated explored subgraph.
func explore(ctx context.Context, client llm.Client, view *prompts.View, store kg.Reader, question string, anchors []string, cfg ToGConfig) (*kg.Graph, error) {
	explored := &kg.Graph{}
	frontier := make([]string, 0, len(anchors))
	for _, a := range anchors {
		if canonical, ok := store.FindSubjectFold(a); ok {
			frontier = append(frontier, canonical)
		}
	}
	seen := map[string]bool{}
	for depth := 0; depth < cfg.Depth && len(frontier) > 0; depth++ {
		var next []string
		for _, ent := range frontier {
			if seen[ent] {
				continue
			}
			seen[ent] = true
			triples := store.Subject(ent)
			if len(triples) == 0 {
				continue
			}
			var candidates []string
			seenRel := map[string]bool{}
			for _, t := range triples {
				if !seenRel[t.Relation] {
					seenRel[t.Relation] = true
					candidates = append(candidates, t.Relation)
				}
			}
			kept, err := pruneRelations(ctx, client, view, question, candidates, cfg.RelBeam)
			if err != nil {
				return nil, fmt.Errorf("baselines: ToG: %w", err)
			}
			for _, rel := range kept {
				for _, t := range store.SubjectRelation(ent, rel) {
					explored.Add(t)
					if len(next) < cfg.WidthCap && store.HasSubject(t.Object) {
						next = append(next, t.Object)
					}
				}
			}
		}
		frontier = next
	}
	return explored.Dedup(), nil
}

// pruneRelations asks the LLM to score candidate relations against the
// question and keeps the top beam.
func pruneRelations(ctx context.Context, client llm.Client, view *prompts.View, question string, candidates []string, beam int) ([]string, error) {
	if beam <= 0 {
		beam = 2
	}
	if len(candidates) <= beam {
		return candidates, nil
	}
	resp, err := client.Complete(ctx, llm.Request{
		Prompt: view.ScoreRelations(question, candidates),
	})
	if err != nil {
		return nil, err
	}
	scores := llm.ParseRelScores(resp.Text)
	sorted := append([]string(nil), candidates...)
	sort.SliceStable(sorted, func(i, j int) bool {
		si, sj := scores[sorted[i]], scores[sorted[j]]
		if si != sj {
			return si > sj
		}
		return sorted[i] < sorted[j]
	})
	return sorted[:beam], nil
}
