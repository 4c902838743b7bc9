package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalizeAnswer(t *testing.T) {
	tests := []struct{ in, want string }{
		{"The Lake Superior", "lake superior"},
		{"  Hello,   World! ", "hello world"},
		{"A  B", "b"},
		{"1,443,497,378", "1 443 497 378"},
		{"", ""},
	}
	for _, tt := range tests {
		if got := NormalizeAnswer(tt.in); got != tt.want {
			t.Errorf("NormalizeAnswer(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestExtractMarked(t *testing.T) {
	tests := []struct{ in, want string }{
		{"the answer is {Paris}.", "Paris"},
		{"{X} and {Y}", "X"},
		{"no braces at all", "no braces at all"},
		{"open only {trailing", "trailing"},
	}
	for _, tt := range tests {
		if got := ExtractMarked(tt.in); got != tt.want {
			t.Errorf("ExtractMarked(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestHit1(t *testing.T) {
	tests := []struct {
		pred  string
		golds []string
		want  float64
	}{
		{"Based on the graph, the answer is {Lake Superior}.", []string{"Lake Superior"}, 1},
		{"the answer is {lake superior}", []string{"Lake Superior"}, 1},
		{"{Lake Michigan}", []string{"Lake Superior"}, 0},
		{"the largest is {Lake Superior} which area is 82,350", []string{"Lake Superior"}, 1},
		{"{82350}", []string{"82350", "82000"}, 1},
		{"answer: {}", []string{"x"}, 0},
		{"{The Nile}", []string{"Nile"}, 1}, // article dropped
	}
	for _, tt := range tests {
		if got := Hit1(tt.pred, tt.golds); got != tt.want {
			t.Errorf("Hit1(%q, %v) = %v, want %v", tt.pred, tt.golds, got, tt.want)
		}
	}
}

func TestHit1SpanBoundaries(t *testing.T) {
	// Gold must match on token boundaries, not substrings.
	if Hit1("{superiority}", []string{"superior"}) != 0 {
		t.Error("substring matched across token boundary")
	}
	if Hit1("{the lake superior region}", []string{"Lake Superior"}) != 1 {
		t.Error("token-bounded span not matched")
	}
}

func TestRougeLIdentical(t *testing.T) {
	p, r, f1 := RougeL("a b c d", "a b c d")
	if p != 1 || r != 1 || f1 != 1 {
		t.Errorf("identical: p=%v r=%v f1=%v", p, r, f1)
	}
}

func TestRougeLDisjoint(t *testing.T) {
	_, _, f1 := RougeL("a b c", "x y z")
	if f1 != 0 {
		t.Errorf("disjoint f1 = %v", f1)
	}
}

func TestRougeLKnownValue(t *testing.T) {
	// candidate "a b d", reference "a c b d": LCS = "a b d" (3).
	p, r, f1 := RougeL("a b d", "a c b d")
	if math.Abs(p-1.0) > 1e-9 {
		t.Errorf("precision = %v, want 1", p)
	}
	if math.Abs(r-0.75) > 1e-9 {
		t.Errorf("recall = %v, want 0.75", r)
	}
	want := 2 * 1.0 * 0.75 / 1.75
	if math.Abs(f1-want) > 1e-9 {
		t.Errorf("f1 = %v, want %v", f1, want)
	}
}

func TestRougeLEmpty(t *testing.T) {
	if _, _, f1 := RougeL("", "a b"); f1 != 0 {
		t.Error("empty candidate should score 0")
	}
	if _, _, f1 := RougeL("a b", ""); f1 != 0 {
		t.Error("empty reference should score 0")
	}
}

func TestRougeLMultiTakesBest(t *testing.T) {
	refs := []string{"x y z", "a b c d"}
	got := RougeLMulti("a b c d", refs)
	if got != 1 {
		t.Errorf("multi-ref best = %v, want 1", got)
	}
	if RougeLMulti("a b", nil) != 0 {
		t.Error("no refs should score 0")
	}
}

// Properties: f1 bounded in [0,1]; swapping candidate and reference swaps
// precision and recall but preserves f1.
func TestRougeLProperties(t *testing.T) {
	f := func(a, b string) bool {
		p1, r1, f1 := RougeL(a, b)
		p2, r2, f2 := RougeL(b, a)
		if f1 < 0 || f1 > 1.000001 {
			return false
		}
		if math.Abs(p1-r2) > 1e-9 || math.Abs(r1-p2) > 1e-9 {
			return false
		}
		return math.Abs(f1-f2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizeWords(t *testing.T) {
	got := TokenizeWords("Hello, World! It's 42.")
	want := []string{"hello", "world", "it", "s", "42"}
	if len(got) != len(want) {
		t.Fatalf("TokenizeWords = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestMeanAndAccumulator(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
}

// TestScoreRule: an open question is scored by ROUGE-L against its
// references, a closed one by Hit@1 against its golds, whatever the other
// list holds.
func TestScoreRule(t *testing.T) {
	refs := []string{"the lake lies between canada and the united states"}
	golds := []string{"Lake Superior"}
	answer := "{Lake Superior} lies between Canada and the United States"
	if got, want := Score(answer, true, refs, golds), RougeLMulti(answer, refs); got != want {
		t.Errorf("open: score %v, want ROUGE-L %v", got, want)
	}
	if got := Score(answer, false, refs, golds); got != 1 {
		t.Errorf("closed: score %v, want Hit@1 of 1", got)
	}
	if got := Score(answer, false, golds, refs); got != 0 {
		t.Errorf("closed against the references as golds: score %v, want 0", got)
	}
}
