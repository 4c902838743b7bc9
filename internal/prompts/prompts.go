// Package prompts holds the paper's prompt templates (Figs. 3, 4, 5 plus
// the IO/CoT baselines' formats) and the helpers that assemble and parse
// them. Both the real pipeline (internal/core, internal/baselines) and the
// simulated LLM (internal/llm) work purely through these textual prompts:
// the model sees exactly what a GPT endpoint would see, and callers parse
// exactly what a GPT endpoint would return. Keeping the interface textual
// is what makes the Fig. 2 structural-validity experiment meaningful.
//
// The templates themselves are not Go constants: they live in versioned
// .prompt files (see file.go) under defaults/, loaded by the Registry
// (registry.go). The package-level builders below render the shared
// default registry's active versions; a method run renders from the one
// View its query resolved (internal/answer), overrides included.
package prompts

import (
	"fmt"
	"strings"
)

// Markers used by the simulated model to recognise the task. They occur
// naturally in the paper's prompt texts.
const (
	MarkerCypher   = "with (Cypher)"
	MarkerDirect   = "write the triples directly"
	MarkerGraphQA  = "[graph]:"
	MarkerCoT      = "think step by step"
	MarkerProblem  = "[problem]:"
	MarkerQuestion = "{Question}:"
	MarkerGold     = `"gold graph":`
	MarkerToFix    = `"graph to fix":`
	MarkerFixed    = `"Fixed graph":`
	MarkerAnswer   = "[answer]:"
)

// PseudoGraph builds the Fig. 3 prompt: plan knowledge, then emit a Cypher
// knowledge graph for the question.
func PseudoGraph(question string) string { return Default().View().PseudoGraph(question) }

// DirectTriples builds the ablation prompt that asks for bare triples
// instead of Cypher — the "direct generation" route whose structural
// accuracy the paper measures at ~75 % versus ~98 % for the Cypher route.
func DirectTriples(question string) string {
	return Default().View().DirectTriples(question)
}

// Verify builds the Fig. 4 prompt: fix the pseudo-graph against the gold
// graph. goldGraph should already be rendered in [entity_i] blocks with
// higher-confidence subjects first (the paper places them closer to Gp).
func Verify(problem, goldGraph, graphToFix string) string {
	return Default().View().Verify(problem, goldGraph, graphToFix)
}

// AnswerFromGraph builds the Fig. 5 prompt: answer the problem from the
// graph, marking the answer entity with {...}; with an empty graph the
// model may use its own knowledge.
func AnswerFromGraph(problem, graph string) string {
	return Default().View().AnswerFromGraph(problem, graph)
}

// IO builds the standard input-output prompt with six in-context examples.
func IO(question string) string { return Default().View().IO(question) }

// CoT builds the chain-of-thought prompt: six examples with explicit
// reasoning, then "let's think step by step".
func CoT(question string) string { return Default().View().CoT(question) }

// ExtractTaskQuestion pulls the question out of a PseudoGraph or
// DirectTriples prompt: the text after the final "{Question}:" marker.
func ExtractTaskQuestion(prompt string) (string, error) {
	i := strings.LastIndex(prompt, MarkerQuestion)
	if i < 0 {
		return "", fmt.Errorf("prompts: no %q marker", MarkerQuestion)
	}
	rest := prompt[i+len(MarkerQuestion):]
	if j := strings.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	q := strings.TrimSpace(rest)
	if q == "" {
		return "", fmt.Errorf("prompts: empty task question")
	}
	return q, nil
}

// ExtractProblem pulls the question out of an IO/CoT/Verify/AnswerFromGraph
// prompt: the quoted text after the final "[problem]:" marker.
func ExtractProblem(prompt string) (string, error) {
	i := strings.LastIndex(prompt, MarkerProblem)
	if i < 0 {
		return "", fmt.Errorf("prompts: no %q marker", MarkerProblem)
	}
	rest := prompt[i+len(MarkerProblem):]
	if j := strings.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	q := strings.TrimSpace(rest)
	q = strings.Trim(q, `"`)
	if q == "" {
		return "", fmt.Errorf("prompts: empty problem")
	}
	return q, nil
}

// VerifyParts is the decomposition of a Fig. 4 prompt.
type VerifyParts struct {
	Problem   string
	GoldGraph string
	ToFix     string
}

// ExtractVerifyParts splits a Verify prompt into its task sections. Only
// the final [Task] occurrence of each marker is used, so the in-context
// examples do not interfere.
func ExtractVerifyParts(prompt string) (VerifyParts, error) {
	var p VerifyParts
	problem, err := ExtractProblem(prompt)
	if err != nil {
		return p, err
	}
	p.Problem = problem
	gi := strings.LastIndex(prompt, MarkerGold)
	ti := strings.LastIndex(prompt, MarkerToFix)
	fi := strings.LastIndex(prompt, MarkerFixed)
	if gi < 0 || ti < 0 || fi < 0 || !(gi < ti && ti < fi) {
		return p, fmt.Errorf("prompts: malformed verify prompt (gold=%d tofix=%d fixed=%d)", gi, ti, fi)
	}
	p.GoldGraph = strings.TrimSpace(prompt[gi+len(MarkerGold) : ti])
	p.ToFix = strings.TrimSpace(prompt[ti+len(MarkerToFix) : fi])
	return p, nil
}

// GraphQAParts is the decomposition of a Fig. 5 prompt.
type GraphQAParts struct {
	Problem string
	Graph   string
}

// ExtractGraphQAParts splits an AnswerFromGraph prompt.
func ExtractGraphQAParts(prompt string) (GraphQAParts, error) {
	var p GraphQAParts
	problem, err := ExtractProblem(prompt)
	if err != nil {
		return p, err
	}
	p.Problem = problem
	gi := strings.LastIndex(prompt, MarkerGraphQA)
	ai := strings.LastIndex(prompt, MarkerAnswer)
	if gi < 0 {
		return p, fmt.Errorf("prompts: no %q marker", MarkerGraphQA)
	}
	end := len(prompt)
	if ai > gi {
		end = ai
	}
	p.Graph = strings.TrimSpace(prompt[gi+len(MarkerGraphQA) : end])
	return p, nil
}

// MarkerScoreRels marks the relation-scoring prompt ToG-style exploration
// uses to prune candidate relations.
const MarkerScoreRels = "[candidate relations]:"

// ScoreRelations builds the ToG relation-pruning prompt: rate each
// candidate relation's relevance to the question, one score per line.
func ScoreRelations(question string, relations []string) string {
	return Default().View().ScoreRelations(question, relations)
}

// ExtractScoreRelations pulls the candidate relation list out of a
// ScoreRelations prompt.
func ExtractScoreRelations(prompt string) (question string, relations []string, err error) {
	question, err = ExtractProblem(prompt)
	if err != nil {
		return "", nil, err
	}
	i := strings.LastIndex(prompt, MarkerScoreRels)
	if i < 0 {
		return "", nil, fmt.Errorf("prompts: no %q marker", MarkerScoreRels)
	}
	for _, line := range strings.Split(prompt[i+len(MarkerScoreRels):], "\n") {
		line = strings.TrimSpace(line)
		if line != "" {
			relations = append(relations, line)
		}
	}
	if len(relations) == 0 {
		return "", nil, fmt.Errorf("prompts: no candidate relations")
	}
	return question, relations, nil
}

// TaskKind classifies a prompt by its markers, in the priority order the
// simulated model dispatches on.
type TaskKind int

const (
	TaskIO TaskKind = iota
	TaskCoT
	TaskPseudoGraph
	TaskDirectTriples
	TaskVerify
	TaskGraphQA
	TaskScoreRels
)

// String names the task kind.
func (k TaskKind) String() string {
	switch k {
	case TaskIO:
		return "io"
	case TaskCoT:
		return "cot"
	case TaskPseudoGraph:
		return "pseudo-graph"
	case TaskDirectTriples:
		return "direct-triples"
	case TaskVerify:
		return "verify"
	case TaskGraphQA:
		return "graph-qa"
	case TaskScoreRels:
		return "score-relations"
	default:
		return "unknown"
	}
}

// Classify returns the task kind of a prompt.
func Classify(prompt string) TaskKind {
	switch {
	case strings.Contains(prompt, MarkerScoreRels):
		return TaskScoreRels
	case strings.Contains(prompt, MarkerToFix):
		return TaskVerify
	case strings.Contains(prompt, MarkerCypher):
		return TaskPseudoGraph
	case strings.Contains(prompt, MarkerDirect):
		return TaskDirectTriples
	case strings.Contains(prompt, MarkerGraphQA):
		return TaskGraphQA
	case strings.Contains(prompt, MarkerCoT):
		return TaskCoT
	default:
		return TaskIO
	}
}
