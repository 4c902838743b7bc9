package embed

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestEncodeDeterministic(t *testing.T) {
	enc := NewEncoder()
	a := enc.Encode("Lake Superior area 82350")
	b := enc.Encode("Lake Superior area 82350")
	if a != b {
		t.Error("Encode is not deterministic")
	}
}

func TestEncodeNormalised(t *testing.T) {
	enc := NewEncoder()
	for _, text := range []string{"a", "hello world", "China population 1443497378"} {
		v := enc.Encode(text)
		if n := v.Norm(); math.Abs(n-1) > 1e-5 {
			t.Errorf("Encode(%q) norm = %v, want 1", text, n)
		}
	}
}

func TestEncodeEmpty(t *testing.T) {
	enc := NewEncoder()
	if !enc.Encode("").IsZero() {
		t.Error("Encode(empty) should be zero vector")
	}
	if !enc.Encode("   ...  ").IsZero() {
		t.Error("Encode(separators) should be zero vector")
	}
}

func TestSimilarityOrdering(t *testing.T) {
	enc := NewEncoder()
	query := "China population 1443497378"
	same := enc.Similarity(query, "China population 1375198619")
	related := enc.Similarity(query, "China capital Beijing")
	unrelated := enc.Similarity(query, "Lake Superior area 82350")
	if !(same > related && related > unrelated) {
		t.Errorf("similarity ordering broken: same=%.3f related=%.3f unrelated=%.3f",
			same, related, unrelated)
	}
}

func TestSelfSimilarityIsOne(t *testing.T) {
	enc := NewEncoder()
	if s := enc.Similarity("place of birth", "place of birth"); math.Abs(s-1) > 1e-5 {
		t.Errorf("self similarity = %v, want 1", s)
	}
}

// TestCrossSchemaOverlap asserts the property Table III relies on: a
// Wikidata-style label and the corresponding Freebase path land close.
func TestCrossSchemaOverlap(t *testing.T) {
	enc := NewEncoder()
	cases := []struct{ natural, path string }{
		{"place of birth", "people/person/place_of_birth"},
		{"population", "location/statistical_region/population"},
		{"founded by", "organization/organization/founders"},
	}
	for _, c := range cases {
		aligned := enc.Similarity(c.natural, c.path)
		foreign := enc.Similarity(c.natural, "geography/river/basin_countries")
		if aligned <= foreign {
			t.Errorf("%q vs %q (%.3f) should beat foreign path (%.3f)",
				c.natural, c.path, aligned, foreign)
		}
	}
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Hello World", []string{"hello", "world"}},
		{"people/person/place_of_birth", []string{"people", "person", "place", "of", "birth"}},
		{"it's 42", []string{"it", "s", "42"}},
		{"", nil},
	}
	for _, tt := range tests {
		got := Tokenize(tt.in)
		if len(got) != len(tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", tt.in, i, got[i], tt.want[i])
			}
		}
	}
}

// referenceTokenize is Tokenize as it was before it learnt to slice tokens
// out of its input: every token built rune by rune. It defines the output.
func referenceTokenize(text string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// tokenizeSeeds cover each way a run can begin, continue and end.
var tokenizeSeeds = []string{
	"",
	"people/person/place_of_birth",
	"organization.organization.headquarters location/mailing_address/citytown",
	"<Lake Stanairk> <area> <6731>",
	"iPhone 15Pro MAX x86_64",
	"ALLCAPS lower MiXeD 007",
	"Zürich Ångström ǅ İstanbul ΣΊΣΥΦΟΣ Straße",
	"数据 知识 graph １２３ ٣٤",
	"em—dash·dot\u00a0nbsp…",
	"bad\xffutf8 \xc3( \xe2\x82 tail\xc3",
	"\ufffd replacement \xef\xbf\xbd",
	"—",
	" \t\n//__..",
	"a",
	"Z",
}

// FuzzTokenize: the output is the reference's on every input.
func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(requireReferenceTokens)
}

// requireReferenceTokens fails unless Tokenize gives text the reference's
// tokens, nil for none included.
func requireReferenceTokens(t *testing.T, text string) {
	t.Helper()
	got, want := Tokenize(text), referenceTokenize(text)
	if !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("Tokenize(%q) = %q, reference gives %q", text, got, want)
	}
}

// TestTokenizeMatchesReference runs the fuzz property over random strings
// drawn from the pieces of the seeds, so `go test` alone tries every
// adjacency of run kinds (the fuzz engine only replays the seeds there).
func TestTokenizeMatchesReference(t *testing.T) {
	var pieces []string
	for _, s := range tokenizeSeeds {
		for _, r := range s {
			pieces = append(pieces, string(r))
		}
	}
	pieces = append(pieces, "\xff", "\xc3", "\xe2\x82", "\x80")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		requireReferenceTokens(t, b.String())
	}
}

// Property: cosine of encoder outputs is always within [-1, 1] + epsilon,
// and Dot on normalised vectors equals Cosine.
func TestCosineBounds(t *testing.T) {
	enc := NewEncoder()
	f := func(a, b string) bool {
		va, vb := enc.Encode(a), enc.Encode(b)
		d := va.Dot(vb)
		if d < -1.0001 || d > 1.0001 {
			return false
		}
		if va.IsZero() || vb.IsZero() {
			return true
		}
		return math.Abs(Cosine(va, vb)-d) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: tokenisation is case-insensitive, so encodings are too.
func TestEncodeCaseInsensitive(t *testing.T) {
	enc := NewEncoder()
	f := func(s string) bool {
		return enc.Encode(s) == enc.Encode(upperASCII(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func upperASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 32
		}
	}
	return string(b)
}

func TestZeroWeightEncoderUsesDefaults(t *testing.T) {
	var enc Encoder // zero value
	v := enc.Encode("hello world")
	if v.IsZero() {
		t.Error("zero-value encoder produced zero vector; defaults not applied")
	}
}

func TestCustomWeights(t *testing.T) {
	wordOnly := &Encoder{WordWeight: 1, BigramWeight: 0, CharWeight: 0}
	// Without char features, morphological variants share nothing.
	sim := wordOnly.Similarity("educated", "education")
	full := NewEncoder().Similarity("educated", "education")
	if sim >= full {
		t.Errorf("char features should increase variant similarity: wordOnly=%.3f full=%.3f", sim, full)
	}
}

func TestVectorNormZero(t *testing.T) {
	var v Vector
	if v.Norm() != 0 {
		t.Error("zero vector norm != 0")
	}
	if Cosine(v, v) != 0 {
		t.Error("Cosine of zero vectors should be 0")
	}
}

// TestNormDotMatchesDot pins the kernel to the reference implementation:
// over encoder output the unrolled NormDot must agree with Vector.Dot to
// float64 round-off (the four-accumulator reordering moves only the last
// bits of a 256-term sum).
func TestNormDotMatchesDot(t *testing.T) {
	enc := NewEncoder()
	texts := []string{
		"China population 1443497378",
		"Alan Turing field computer science",
		"people/person/place_of_birth London",
		"Lake Superior area 82350",
	}
	for _, a := range texts {
		for _, b := range texts {
			va, vb := enc.Encode(a), enc.Encode(b)
			ref := va.Dot(vb)
			got := NormDot(&va, &vb)
			if diff := math.Abs(ref - got); diff > 1e-12 {
				t.Errorf("NormDot(%q, %q) = %v, Dot = %v (diff %v)", a, b, got, ref, diff)
			}
		}
	}
}

// BenchmarkDotKernel compares the value-receiver Dot against the NormDot
// scan kernel — the per-candidate cost of every exact scan and HNSW edge
// expansion.
func BenchmarkDotKernel(b *testing.B) {
	enc := NewEncoder()
	q := enc.Encode("entity 4242 of cluster 13 population")
	v := enc.Encode("entity 4241 of cluster 13 population")
	b.Run("Dot", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += q.Dot(v)
		}
		sinkFloat = s
	})
	b.Run("NormDot", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += NormDot(&q, &v)
		}
		sinkFloat = s
	})
}

// BenchmarkTokenize tokenises the three kinds of text the request path
// sees: a Wikidata-style pseudo-triple (capitalised names), a Freebase
// triple (lower-case paths) and a question.
func BenchmarkTokenize(b *testing.B) {
	texts := []string{
		"Lake Stanairk number of population 11201949",
		"lake stanairk geography/lake/surface_area 6731",
		"Which university did the author of The Relgrerk Principle attend?",
	}
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		for _, s := range texts {
			n += len(Tokenize(s))
		}
	}
	sinkFloat = float64(n)
}

// BenchmarkEncode encodes the texts BenchmarkTokenize tokenises, plus a
// pseudo-triple as the Cypher decoder phrases it.
func BenchmarkEncode(b *testing.B) {
	enc := NewEncoder()
	texts := []string{
		"Lake Stanairk number of population 11201949",
		"lake stanairk geography/lake/surface_area 6731",
		"Which university did the author of The Relgrerk Principle attend?",
		"Lake Stanairk NUMBER_OF_POPULATION 11201949",
	}
	b.ReportAllocs()
	var s float32
	for b.Loop() {
		for _, t := range texts {
			v := enc.Encode(t)
			s += v[0]
		}
	}
	sinkFloat = float64(s)
}

var sinkFloat float64
