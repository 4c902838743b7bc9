package llm

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/prompts"
	"repro/internal/qa"
	"repro/internal/world"
)

// SimLM is the deterministic simulated LLM. See the package comment for
// the design; llm.go for the grade parameters. It is safe for concurrent
// use.
type SimLM struct {
	w      *world.World
	params GradeParams
	mem    *memory
	res    *qa.Resolver
	seed   string
}

// NewSim builds a simulated model of the given grade over a world. The
// seed isolates this model instance's memory from others with the same
// grade.
func NewSim(w *world.World, params GradeParams, seed int64) *SimLM {
	s := params.Name + "/" + strconv.FormatInt(seed, 10)
	return &SimLM{
		w:      w,
		params: params,
		mem:    &memory{w: w, p: params, seed: s},
		res:    &qa.Resolver{W: w},
		seed:   s,
	}
}

// Name implements Client.
func (s *SimLM) Name() string { return s.params.Name }

// Complete implements Client: classify the prompt by its markers (exactly
// as the texts from internal/prompts are shaped) and produce the grade- and
// memory-dependent behaviour for that task. A cancelled context returns
// its error before any work, standing in for an aborted network call.
func (s *SimLM) Complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	if req.Prompt == "" {
		return Response{}, fmt.Errorf("llm: empty prompt")
	}
	var text string
	var err error
	switch kind := prompts.Classify(req.Prompt); kind {
	case prompts.TaskPseudoGraph:
		text, err = s.completePseudoGraph(req)
	case prompts.TaskDirectTriples:
		text, err = s.completeDirectTriples(req)
	case prompts.TaskVerify:
		text, err = s.completeVerify(req)
	case prompts.TaskGraphQA:
		text, err = s.completeGraphQA(req)
	case prompts.TaskScoreRels:
		text, err = s.completeScoreRels(req)
	case prompts.TaskCoT:
		text, err = s.completeParametric(req, true)
	default:
		text, err = s.completeParametric(req, false)
	}
	if err != nil {
		return Response{}, err
	}
	return Response{
		Text: text,
		Usage: Usage{
			PromptTokens:     estimateTokens(req.Prompt),
			CompletionTokens: estimateTokens(text),
		},
	}, nil
}
