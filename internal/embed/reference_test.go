package embed

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kg"
	"repro/internal/world"
)

// referenceEncode is Encode as it was before it learnt to hash features
// without building them: every feature string concatenated, then hashed
// twice. It defines the output.
func referenceEncode(e *Encoder, text string) Vector {
	var v Vector
	ww, wb, wc := e.weights()
	tokens := Tokenize(text)
	if len(tokens) == 0 {
		return v
	}
	for _, tok := range tokens {
		referenceAddFeature(&v, "w:"+tok, ww)
		if wc != 0 {
			padded := "^" + tok + "$"
			for i := 0; i+3 <= len(padded); i++ {
				referenceAddFeature(&v, "c:"+padded[i:i+3], wc)
			}
		}
	}
	if wb != 0 {
		for i := 0; i+1 < len(tokens); i++ {
			referenceAddFeature(&v, "b:"+tokens[i]+" "+tokens[i+1], wb)
		}
	}
	normalize(&v)
	return v
}

func referenceAddFeature(v *Vector, feat string, weight float64) {
	h := fnv64(feat)
	i1 := int(h % Dim)
	s1 := float32(1)
	if h&(1<<40) != 0 {
		s1 = -1
	}
	h2 := fnv64a(feat)
	i2 := int(h2 % Dim)
	s2 := float32(1)
	if h2&(1<<40) != 0 {
		s2 = -1
	}
	v[i1] += s1 * float32(weight)
	v[i2] += s2 * float32(weight) * 0.5
}

// fnv64 is FNV-1 64-bit.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h *= prime
		h ^= uint64(s[i])
	}
	return h
}

// fnv64a is FNV-1a 64-bit (xor before multiply).
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// referenceEncoders are the default weights and every way a weight can be
// zero: no bigrams, no char trigrams, neither, no words, and the zero
// value (which falls back to the defaults).
var referenceEncoders = []*Encoder{
	NewEncoder(),
	{WordWeight: 1, BigramWeight: 0, CharWeight: 0.35},
	{WordWeight: 1, BigramWeight: 0.5, CharWeight: 0},
	{WordWeight: 1, BigramWeight: 0, CharWeight: 0},
	{WordWeight: 0, BigramWeight: 0.5, CharWeight: 0.35},
	{},
}

// requireReferenceVector fails unless every reference encoder gives text
// the reference's vector, bit for bit.
func requireReferenceVector(t *testing.T, text string) {
	t.Helper()
	for _, e := range referenceEncoders {
		got, want := e.Encode(text), referenceEncode(e, text)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%+v: Encode(%q)[%d] = %v, reference gives %v", *e, text, i, got[i], want[i])
			}
		}
	}
}

// FuzzEncode: the vector is the reference's on every input.
func FuzzEncode(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(requireReferenceVector)
}

// TestEncodeMatchesReference checks Encode against the reference over
// every text of both full-scale seed stores, the same triples phrased as
// the pseudo-graph decoder phrases them ("Subject PLACE_OF_BIRTH Object"),
// texts longer than Encode's stack buffers, and random strings drawn from
// the pieces of the tokenizer's seeds: upper case, non-ASCII, invalid
// UTF-8 and empty text.
func TestEncodeMatchesReference(t *testing.T) {
	w := world.MustGenerate(world.DefaultConfig())
	texts := 0
	for _, st := range []*kg.Store{world.WikidataSchema().Render(w), world.FreebaseSchema().Render(w)} {
		for _, tr := range st.All() {
			requireReferenceVector(t, tr.Text())
			pseudo := strings.ToUpper(strings.ReplaceAll(tr.Relation, " ", "_"))
			requireReferenceVector(t, tr.Subject+" "+pseudo+" "+tr.Object)
			texts++
		}
	}
	if texts == 0 {
		t.Fatal("the seed stores hold no triples")
	}
	t.Logf("%d seed-store triples", texts)
	for _, long := range []string{
		strings.Repeat("Ab c9 ", 100),
		strings.Repeat("Zü", 200) + " tail",
		"head " + strings.Repeat("x", 300) + " " + strings.Repeat("Y", 300),
	} {
		requireReferenceVector(t, long)
	}

	var pieces []string
	for _, s := range tokenizeSeeds {
		requireReferenceVector(t, s)
		for _, r := range s {
			pieces = append(pieces, string(r))
		}
	}
	pieces = append(pieces, "\xff", "\xc3", "\xe2\x82", "\x80", " ", "^", "$")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for n := rng.Intn(16); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		requireReferenceVector(t, b.String())
	}
}
