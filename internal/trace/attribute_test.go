package trace

import (
	"testing"

	"repro/internal/metrics"
)

func TestAttribute(t *testing.T) {
	closed := func(answer string, gp, gg, gf []string) Record {
		return Record{Answer: answer, Golds: []string{"Beijing"}, Artefacts: Artefacts{Gp: gp, Gg: gg, Gf: gf}}
	}
	gp := []string{"<China> <capital> <?>"}
	hit := []string{"<China> <capital> <Beijing>"}
	miss := []string{"<China> <capital> <Shanghai>"}

	// An open question is scored by ROUGE-L against its references. Its
	// first reference has ten words and the candidate shares two of
	// them: three candidate words give F1 = 4/13 ≈ 0.31, four give
	// F1 = 4/14 ≈ 0.29.
	ref := "Lake Thortheark has an area of 40765. It is deep."
	open := func(answer string, gg, gf []string) Record {
		return Record{Answer: answer, Open: true, Refs: []string{ref, "another reference"}, Artefacts: Artefacts{Gp: gp, Gg: gg, Gf: gf}}
	}
	above, below := "lake thortheark zz", "lake thortheark zz zz"
	// The first sentence of the first reference, rendered as one triple.
	sentence := []string{"<Lake Thortheark> <has an area of> <40765>"}
	triples := []string{"<Lake Thortheark> <area> <40765>"}

	tests := []struct {
		name string
		rec  Record
		want Attribution
	}{
		{"correct closed", closed("It is {Beijing}.", gp, hit, hit), Correct},
		{"correct wins over missing artefacts", closed("{Beijing}", nil, nil, nil), Correct},
		{"no pipeline artefacts", closed("{Tokyo}", nil, nil, nil), PseudoEmpty},
		{"pseudo-graph but empty gold graph", closed("{Tokyo}", gp, nil, nil), GgEmpty},
		{"gold graph misses the answer", closed("{Tokyo}", gp, miss, miss), GgMissed},
		{"verification loses the answer", closed("{Tokyo}", gp, append(miss, hit...), miss), GfMissed},
		{"answer generation misses it", closed("{Tokyo}", gp, hit, hit), AnswerMissed},
		{"open above the boundary", open(above, nil, nil), Correct},
		{"open below the boundary, no gold graph", open(below, nil, nil), GgEmpty},
		{"open, Gg holds the first sentence", open(below, sentence, sentence), AnswerMissed},
		{"open, Gf drops the first sentence", open(below, sentence, triples), GfMissed},
		{"open, rendered triples only", open(below, triples, triples), GgMissed},
	}
	for _, tt := range tests {
		if got := Attribute(tt.rec); got != tt.want {
			t.Errorf("%s: Attribute = %q, want %q", tt.name, got, tt.want)
		}
	}

	// The two open candidates sit on either side of CorrectScore.
	if s := metrics.Score(above, true, []string{ref}, nil); s < CorrectScore {
		t.Errorf("score of %q = %.4f, want >= %.2f", above, s, CorrectScore)
	}
	if s := metrics.Score(below, true, []string{ref}, nil); s >= CorrectScore {
		t.Errorf("score of %q = %.4f, want < %.2f", below, s, CorrectScore)
	}
}
