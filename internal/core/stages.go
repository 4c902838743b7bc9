package core

import (
	"context"

	"repro/internal/core/exec"
	"repro/internal/kg"
	"repro/internal/llm"
)

// Stage names of the PG&AKV composition, as they appear in trace spans and
// per-stage serving metrics.
const (
	StagePseudo   = "pseudo-graph"
	StageRetrieve = "retrieve-prune"
	StageVerify   = "verify"
	StageAnswer   = "answer"
)

// runState is the shared state of one pipeline composition: each stage
// reads what earlier stages produced and writes its own artefact, mirroring
// the paper's dataflow (question -> Gp -> Gg -> Gf -> answer).
type runState struct {
	// client is the per-run counting client every stage routes LLM calls
	// through, so spans attribute usage stage by stage.
	client llm.Client
	tr     *Trace

	question   string
	gp, gg, gf *kg.Graph
	answer     string
}

// stagePseudo is step 1: prompt for a Cypher program, execute, decode Gp.
func (p *Pipeline) stagePseudo() exec.Stage[runState] {
	return exec.Stage[runState]{
		Name: StagePseudo,
		Run: func(ctx context.Context, s *runState) error {
			gp, err := p.generatePseudoGraph(ctx, s.client, s.question, s.tr)
			if err != nil {
				return err
			}
			s.gp = gp
			s.tr.Gp = gp
			return nil
		},
		InputSize:  func(s *runState) int { return len(s.question) },
		OutputSize: func(s *runState) int { return s.gp.Len() },
	}
}

// stageRetrievePrune is steps 2-3: semantic query + two-step pruning -> Gg.
// Pure retrieval — no LLM calls.
func (p *Pipeline) stageRetrievePrune() exec.Stage[runState] {
	return exec.Stage[runState]{
		Name: StageRetrieve,
		Run: func(ctx context.Context, s *runState) error {
			s.gg = p.QueryAndPrune(s.gp, s.tr)
			s.tr.Gg = s.gg
			return nil
		},
		InputSize:  func(s *runState) int { return s.gp.Len() },
		OutputSize: func(s *runState) int { return s.gg.Len() },
	}
}

// stageVerify is step 4: the LLM edits Gp against Gg -> Gf.
func (p *Pipeline) stageVerify() exec.Stage[runState] {
	return exec.Stage[runState]{
		Name: StageVerify,
		Run: func(ctx context.Context, s *runState) error {
			gf, err := p.verify(ctx, s.client, s.question, s.gp, s.gg, s.tr)
			if err != nil {
				return err
			}
			s.gf = gf
			s.tr.Gf = gf
			return nil
		},
		InputSize:  func(s *runState) int { return s.gp.Len() + s.gg.Len() },
		OutputSize: func(s *runState) int { return s.gf.Len() },
	}
}

// stageAnswerFinal is step 5: answer from the best graph available — Gf
// when verification ran, else the raw Gp (the ours-gp ablation composes
// stagePseudo directly with this stage).
func (p *Pipeline) stageAnswerFinal() exec.Stage[runState] {
	return exec.Stage[runState]{
		Name: StageAnswer,
		Run: func(ctx context.Context, s *runState) error {
			graph := s.gf
			if graph == nil {
				graph = s.gp
			}
			text, err := p.answerFromGraph(ctx, s.client, s.question, graph, s.tr)
			if err != nil {
				return err
			}
			s.answer = text
			return nil
		},
		InputSize: func(s *runState) int {
			if s.gf != nil {
				return s.gf.Len()
			}
			return s.gp.Len()
		},
		OutputSize: func(s *runState) int { return len(s.answer) },
	}
}

// run executes a composition for one question, attaching the per-stage
// spans to the returned trace. On error the partial trace (spans included,
// the failing stage's span carrying its error class) still comes back with
// the Result so serving layers can observe exactly which stage failed.
func (p *Pipeline) run(ctx context.Context, question string, stages ...exec.Stage[runState]) (Result, error) {
	// Reuse the caller's counter when the client already is one (the
	// answer registry wraps every per-query client): one counting layer
	// serves both the per-stage span diffs and the query totals.
	counter, ok := p.client.(*llm.Counting)
	if !ok {
		counter = llm.NewCounting(p.client, 0)
	}
	tr := Trace{Question: question}
	st := runState{client: counter, tr: &tr, question: question}
	spans, err := exec.Run(ctx, &st, exec.Options{DefaultTimeout: p.cfg.StageTimeout, Usage: counter.Usage}, stages...)
	tr.Stages = spans
	if err != nil {
		return Result{Trace: tr}, err
	}
	return Result{Answer: st.answer, Trace: tr}, nil
}

// Answer runs the full PG&AKV composition for a question. The context
// bounds the whole run; Config.StageTimeout additionally bounds each stage.
func (p *Pipeline) Answer(ctx context.Context, question string) (Result, error) {
	return p.run(ctx, question,
		p.stagePseudo(), p.stageRetrievePrune(), p.stageVerify(), p.stageAnswerFinal())
}

// AnswerPseudoOnly runs the Gp-only composition (the paper's "w/ Gp"
// ablation, registry method "ours-gp"): pseudo-graph generation straight
// into answer generation, skipping retrieval and verification.
func (p *Pipeline) AnswerPseudoOnly(ctx context.Context, question string) (Result, error) {
	return p.run(ctx, question, p.stagePseudo(), p.stageAnswerFinal())
}
