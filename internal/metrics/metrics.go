// Package metrics implements the paper's evaluation metrics: Hit@1 for the
// precise-answer datasets (SimpleQuestions, QALD-10) and ROUGE-L-f1 for the
// open-ended Nature Questions set, plus the aggregation helpers the bench
// harness uses.
package metrics

import (
	"strings"
	"unicode"
)

// NormalizeAnswer canonicalises an answer surface for Hit@1 comparison:
// lower-case, strip punctuation, collapse whitespace, drop leading
// articles. This mirrors the standard SQuAD/SimpleQuestions normalisation.
func NormalizeAnswer(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		case unicode.IsSpace(r):
			b.WriteByte(' ')
		default:
			b.WriteByte(' ')
		}
	}
	fields := strings.Fields(b.String())
	// Drop leading articles.
	for len(fields) > 0 {
		switch fields[0] {
		case "the", "a", "an":
			fields = fields[1:]
		default:
			return strings.Join(fields, " ")
		}
	}
	return strings.Join(fields, " ")
}

// ExtractMarked returns the text inside the first {...} pair, which is how
// the paper's answer-generation prompt marks the answer entity. If no
// braces are present the whole string is returned, so unmarked answers
// still score.
func ExtractMarked(s string) string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return s
	}
	close := strings.IndexByte(s[open+1:], '}')
	if close < 0 {
		return s[open+1:]
	}
	return s[open+1 : open+1+close]
}

// Hit1 scores a predicted answer against acceptable gold answers: 1 if the
// normalised marked prediction equals (or contains as a whole answer) any
// normalised gold, else 0.
func Hit1(prediction string, golds []string) float64 {
	pred := NormalizeAnswer(ExtractMarked(prediction))
	if pred == "" {
		return 0
	}
	for _, g := range golds {
		ng := NormalizeAnswer(g)
		if ng == "" {
			continue
		}
		if pred == ng {
			return 1
		}
		// Accept the gold appearing as a token-bounded span of the
		// prediction ("lake superior which area is..." contains gold
		// "lake superior").
		if containsSpan(pred, ng) {
			return 1
		}
	}
	return 0
}

// containsSpan reports whether needle appears in hay on token boundaries.
func containsSpan(hay, needle string) bool {
	ht := strings.Fields(hay)
	nt := strings.Fields(needle)
	if len(nt) == 0 || len(nt) > len(ht) {
		return false
	}
	for i := 0; i+len(nt) <= len(ht); i++ {
		match := true
		for j := range nt {
			if ht[i+j] != nt[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// TokenizeWords lower-cases and splits text into word tokens for ROUGE.
func TokenizeWords(s string) []string {
	var tokens []string
	var cur strings.Builder
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	if cur.Len() > 0 {
		tokens = append(tokens, cur.String())
	}
	return tokens
}

// lcsLen computes the length of the longest common subsequence of two token
// sequences using the O(len(a)*len(b)) DP with two rolling rows.
func lcsLen(a, b []string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// RougeL returns the ROUGE-L precision, recall and F1 of a candidate
// against a single reference, following Lin (2004) with beta = 1.
func RougeL(candidate, reference string) (precision, recall, f1 float64) {
	c := TokenizeWords(candidate)
	r := TokenizeWords(reference)
	if len(c) == 0 || len(r) == 0 {
		return 0, 0, 0
	}
	l := float64(lcsLen(c, r))
	precision = l / float64(len(c))
	recall = l / float64(len(r))
	if precision+recall == 0 {
		return precision, recall, 0
	}
	f1 = 2 * precision * recall / (precision + recall)
	return precision, recall, f1
}

// RougeLMulti returns the best F1 over multiple references — the paper
// writes three reference answers per Nature Question and scores against the
// most favourable one.
func RougeLMulti(candidate string, references []string) float64 {
	best := 0.0
	for _, ref := range references {
		if _, _, f1 := RougeL(candidate, ref); f1 > best {
			best = f1
		}
	}
	return best
}

// Score evaluates one answer by the paper's rule: ROUGE-L F1 against the
// reference answers when the question is open-ended, Hit@1 against the
// gold answers otherwise.
func Score(answer string, open bool, refs, golds []string) float64 {
	if open {
		return RougeLMulti(answer, refs)
	}
	return Hit1(answer, golds)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
