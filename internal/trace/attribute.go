package trace

import (
	"strings"

	"repro/internal/metrics"
)

// Attribution says where a record's answer was lost: Correct, or the
// first pipeline stage whose output no longer holds the gold answer. It
// is the paper's §IV-E error analysis, made from the record alone.
type Attribution string

// The attributions, in pipeline order.
const (
	Correct      Attribution = "correct"       // the answer scores at least CorrectScore
	PseudoEmpty  Attribution = "pseudo-empty"  // the Cypher failed to decode: no pseudo-graph
	GgEmpty      Attribution = "gg-empty"      // retrieval and pruning kept no subject
	GgMissed     Attribution = "gg-missed"     // the gold graph Gg lacks the answer
	GfMissed     Attribution = "gf-missed"     // Gg had the answer; verification lost it
	AnswerMissed Attribution = "answer-missed" // Gf had the answer; answer generation missed it
)

// Losses lists the attributions of a lost answer in pipeline order.
var Losses = []Attribution{PseudoEmpty, GgEmpty, GgMissed, GfMissed, AnswerMissed}

// CorrectScore is the metrics.Score at or above which an answer counts
// as correct. Hit@1 is 0 or 1, so the threshold only bites on ROUGE-L.
const CorrectScore = 0.30

// Attribute decides where a record's answer was lost. A graph holds the
// answer when its rendered triples, joined by newlines and normalised,
// contain a normalised gold surface. An open question has no golds: its
// proxy target is the first sentence of its first reference (the text
// before the first '.'), for example "Lake Thortheark has an area of
// 40765". Rendered triples almost never contain such a sentence, so a
// lost open answer nearly always reads GgMissed whatever stage lost it.
func Attribute(rec Record) Attribution {
	switch {
	case metrics.Score(rec.Answer, rec.Open, rec.Refs, rec.Golds) >= CorrectScore:
		return Correct
	case len(rec.Gp) == 0:
		return PseudoEmpty
	case len(rec.Gg) == 0:
		return GgEmpty
	case !containsGold(strings.Join(rec.Gg, "\n"), rec):
		return GgMissed
	case !containsGold(strings.Join(rec.Gf, "\n"), rec):
		return GfMissed
	default:
		return AnswerMissed
	}
}

// containsGold reports whether the graph text contains any acceptable
// answer surface (normalised substring check; open questions use the
// first sentence of the first reference as a proxy).
func containsGold(graphText string, rec Record) bool {
	hay := metrics.NormalizeAnswer(graphText)
	targets := rec.Golds
	if rec.Open && len(rec.Refs) > 0 {
		targets = []string{rec.Refs[0]}
		first := rec.Refs[0]
		if i := strings.IndexByte(first, '.'); i > 0 {
			targets = []string{first[:i]}
		}
	}
	for _, g := range targets {
		ng := metrics.NormalizeAnswer(g)
		if ng != "" && strings.Contains(hay, ng) {
			return true
		}
	}
	return false
}
