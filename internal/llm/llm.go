// Package llm provides the LLM client interface used by the pipeline and
// baselines, and SimLM — the deterministic simulated model that stands in
// for GPT-3.5/GPT-4 (docs/architecture.md, "Layer map").
//
// SimLM's design principle: perfect language understanding, imperfect
// memory. It parses prompts exactly (questions come from the invertible
// grammar in internal/qa) but answers from a parametric memory that is a
// partial, corrupted snapshot of the ground-truth world. Whether a fact is
// known, and whether it is corrupted, are deterministic functions of
// (model seed, fact ID) with probabilities that grow with entity
// popularity — mirroring how real LLMs know head entities well and tail
// entities poorly. Every failure mode the paper discusses is reproduced
// mechanically:
//
//   - hallucination            = corrupted fact (wrong object, right shape)
//   - knowledge gap            = unknown fact (deterministic wrong guess)
//   - structural invalidity    = Cypher/triple syntax corruption (Fig. 2)
//   - relation drift           = pseudo-triples phrased off-schema
//   - verification append bug  = gold graph appended instead of merged
//     (the paper's "main error" in §IV-E)
//   - context dominance        = with a non-empty but insufficient graph
//     the model answers from the graph anyway (why RAG underperforms IO
//     on multi-hop QALD in Table II)
//
// # Serving primitives and invariants
//
// Beyond SimLM, the package provides the serving-side LLM plumbing:
// Scheduler (process-wide bounded concurrency over one slots.Pool) and
// Counting (the usage hook the exec engine diffs for per-stage
// attribution, which also enforces a query's token budget independently
// of admission — it holds even with an unbounded scheduler).
// Invariants:
//
//   - Every Complete honours its context: cancellation and deadlines
//     abort waiting in the scheduler queue, not just the call itself.
//   - At saturation calls are admitted first come, first served, from
//     every route alike; an admitted call is never preempted.
package llm

import (
	"context"
	"unicode"
	"unicode/utf8"
)

// Request is one completion call.
type Request struct {
	Prompt string
	// Temperature controls sampling noise; 0 is greedy/deterministic.
	Temperature float64
	// Nonce distinguishes repeated samples of the same prompt (used by
	// Self-Consistency); same (Prompt, Temperature, Nonce) always yields
	// the same completion.
	Nonce int
}

// Usage is the token accounting of one call (estimated).
type Usage struct {
	PromptTokens     int
	CompletionTokens int
}

// Response is one completion result.
type Response struct {
	Text  string
	Usage Usage
}

// Client is the minimal LLM interface the pipeline depends on.
// Implementations must honour the context: a cancelled or expired context
// makes Complete return the context's error promptly (real backends abort
// the network call; the simulated model checks before answering).
type Client interface {
	// Name identifies the model (e.g. "sim-gpt-3.5").
	Name() string
	// Complete returns the model's completion for the request.
	Complete(ctx context.Context, req Request) (Response, error)
}

// estimateTokens approximates a token count as 4/3 of the word count, the
// usual English heuristic. Words are what strings.Fields splits on
// (unicode.IsSpace runs), counted in place rather than materialised: one
// branch-free pass for ASCII text, as strings.Fields' own counting pass,
// and a rune walk only when the text is not ASCII.
func estimateTokens(s string) int {
	words, wasSpace, seen := 0, 1, uint8(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		seen |= c
		isSpace := int(asciiSpace[c])
		words += wasSpace &^ isSpace
		wasSpace = isSpace
	}
	if seen >= utf8.RuneSelf {
		words = 0
		inWord := false
		for _, r := range s {
			space := unicode.IsSpace(r)
			if !space && !inWord {
				words++
			}
			inWord = !space
		}
	}
	return words * 4 / 3
}

var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// GradeParams parameterises a simulated model grade. All probabilities are
// in [0, 1].
type GradeParams struct {
	// Name is the reported model name.
	Name string

	// KnowBase + KnowPopWeight*popularity^PopExponent is the probability
	// the model knows a fact whose subject has the given popularity.
	KnowBase      float64
	KnowPopWeight float64
	PopExponent   float64
	// CorruptRate is the probability a known fact is remembered wrongly
	// (hallucination).
	CorruptRate float64
	// TempNoise scales per-sample corruption at temperature > 0.
	TempNoise float64
	// IOPenalty is the extra per-hop failure probability when answering
	// directly (IO) rather than with decomposed reasoning (CoT).
	IOPenalty float64
	// CypherErrRate / DirectErrRate are the structural-invalidity rates of
	// Cypher-mediated vs direct triple generation (the Fig. 2 quantities:
	// ~2 % and ~25 %).
	CypherErrRate float64
	DirectErrRate float64
	// RelationDriftRate is the probability a pseudo-triple's relation is
	// phrased off-vocabulary, weakening downstream semantic matching.
	RelationDriftRate float64
	// VerifyAppendRate is the probability the verification step degenerates
	// to appending the gold graph after the pseudo-graph without fixing it
	// (the paper's observed main verification error).
	VerifyAppendRate float64
	// StrictGraphAdherence makes the model compose open-ended answers
	// strictly from a provided graph (GPT-4-like instruction following);
	// non-strict models blend in parametric knowledge.
	StrictGraphAdherence bool
	// FillerSentences is how much generic prose pads parametric open
	// answers (lowers ROUGE precision, as verbose real answers do).
	FillerSentences int
	// TangentFacts is how many off-topic parametric facts wander into open
	// answers.
	TangentFacts int
	// OpenRecallFrac scales how much of its known material the model
	// volunteers in open answers without a graph to lean on.
	OpenRecallFrac float64
	// RelScoreNoise is the amplitude of the noise the model adds when asked
	// to score candidate relations against a question (ToG's pruning step);
	// larger values mean worse exploration.
	RelScoreNoise float64
	// SubjectDriftRate scales the probability that the model mangles a
	// tail entity's spelling when writing it into a pseudo-graph (the
	// effective probability is SubjectDriftRate * (1 - popularity)).
	// Mangled subjects defeat semantic retrieval — the tail-entity
	// weakness that makes QID-anchored ToG stronger than PG&AKV on
	// SimpleQuestions in the paper's Table II.
	SubjectDriftRate float64
	// PlanActivation is the probability that structured knowledge planning
	// recovers a fact plain QA recall would miss — the paper's §IV-E
	// finding that "generating pseudo-graphs ... better activates the
	// model's factual knowledge" (w/ Gp beats CoT on QALD-10).
	PlanActivation float64
	// OpenPlanSelectivity is the fraction of its believed facts the model
	// volunteers when planning an *open* question's pseudo-graph. Cautious
	// models (GPT-4 grade) write down only what they are most certain of,
	// which makes the raw Gp narrower than a free-text answer — the small
	// ROUGE regression in the paper's Table V.
	OpenPlanSelectivity float64
	// PremiseCheckRate is the probability that the model notices a
	// false-premise question (asking about a relation the subject cannot
	// have) and declines to answer instead of hallucinating. Higher grades
	// are better calibrated.
	PremiseCheckRate float64
}

// GPT35Params returns the GPT-3.5-grade preset: shallow tail knowledge,
// noticeable hallucination, loose instruction following.
func GPT35Params() GradeParams {
	return GradeParams{
		Name:                "sim-gpt-3.5",
		KnowBase:            0.03,
		KnowPopWeight:       0.90,
		PopExponent:         4.2,
		CorruptRate:         0.16,
		TempNoise:           0.18,
		IOPenalty:           0.10,
		CypherErrRate:       0.02,
		DirectErrRate:       0.25,
		RelationDriftRate:   0.22,
		VerifyAppendRate:    0.12,
		FillerSentences:     8,
		TangentFacts:        3,
		OpenRecallFrac:      0.80,
		RelScoreNoise:       0.65,
		SubjectDriftRate:    0.90,
		PlanActivation:      0.28,
		OpenPlanSelectivity: 0.95,
		PremiseCheckRate:    0.55,
	}
}

// GPT4Params returns the GPT-4-grade preset: broader knowledge, less
// hallucination, strict instruction following.
func GPT4Params() GradeParams {
	return GradeParams{
		Name:                 "sim-gpt-4",
		KnowBase:             0.05,
		KnowPopWeight:        0.92,
		PopExponent:          3.6,
		CorruptRate:          0.08,
		TempNoise:            0.08,
		IOPenalty:            0.07,
		CypherErrRate:        0.015,
		DirectErrRate:        0.20,
		RelationDriftRate:    0.08,
		VerifyAppendRate:     0.05,
		StrictGraphAdherence: true,
		FillerSentences:      8,
		TangentFacts:         2,
		OpenRecallFrac:       0.90,
		RelScoreNoise:        0.40,
		SubjectDriftRate:     0.45,
		PlanActivation:       0.30,
		OpenPlanSelectivity:  0.20,
		PremiseCheckRate:     0.85,
	}
}
