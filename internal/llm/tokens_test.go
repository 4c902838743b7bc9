package llm

import (
	"strings"
	"testing"
)

// fieldsTokens is the definition estimateTokens counts in place.
func fieldsTokens(s string) int { return len(strings.Fields(s)) * 4 / 3 }

var tokenCases = []string{
	"",
	" ",
	"a",
	"a b c d",
	"  leading and trailing  ",
	"tabs\tand\nnewlines\r\nand\vvertical\fform feeds",
	"no-space-at-all",
	"non breaking\u0085next-line em　ideographic",
	"zero​width space is not a space",
	"invalid \xff\xfe utf-8 \xc3",
	"héllo wörld ünïcode",
	"\x1c\x1d\x1e\x1f separators",
	strings.Repeat("word ", 700),
}

// TestEstimateTokensMatchesFields: the in-place count is the
// strings.Fields count on every case, ASCII and Unicode spaces, invalid
// UTF-8 included.
func TestEstimateTokensMatchesFields(t *testing.T) {
	for _, s := range tokenCases {
		if got, want := estimateTokens(s), fieldsTokens(s); got != want {
			t.Errorf("estimateTokens(%q) = %d, want %d", s, got, want)
		}
	}
}

func FuzzEstimateTokens(f *testing.F) {
	for _, s := range tokenCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := estimateTokens(s), fieldsTokens(s); got != want {
			t.Fatalf("estimateTokens(%q) = %d, want %d", s, got, want)
		}
	})
}

// BenchmarkEstimateTokens counts a prompt-sized text in place and, for
// reference, through strings.Fields.
func BenchmarkEstimateTokens(b *testing.B) {
	s := strings.Repeat("<Some Entity> <some relation> <an object value>\n", 120)
	for name, count := range map[string]func(string) int{"in-place": estimateTokens, "fields": fieldsTokens} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				count(s)
			}
		})
	}
}
