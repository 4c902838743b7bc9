// Package embed provides the deterministic sentence encoder that stands in
// for Sentence-BERT in the PG&AKV pipeline (see docs/architecture.md, "Layer map").
//
// The encoder maps text to a dense, L2-normalised vector using feature
// hashing over word unigrams, word bigrams and character trigrams. Texts
// sharing vocabulary and local word order land close in cosine space, which
// is the only property the pipeline's semantic query step relies on: a
// pseudo-triple "<China> <Number of population> <1463725000>" must score
// high against the KG triple "<China> <population> <1443497378>" because
// they share the subject and most relation vocabulary, even though the
// hallucinated object differs.
//
// The encoder is pure and deterministic: identical text always produces an
// identical vector, across runs and platforms. It is also cheap enough
// that nothing keeps its output: each feature is hashed from the text's
// bytes as Encode reads them, no feature string is built, and a
// triple-sized text encodes without allocating, so callers encode every
// query afresh instead of memoising vectors.
package embed

import (
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Dim is the dimensionality of produced vectors. 256 gives enough hash
// buckets that collisions are rare over KG-scale vocabularies; a triple's
// text sets about a hundred of them, so vectors are sparse. Dim also fits
// a dimension in a byte, which internal/vecstore's packed rows rely on.
const Dim = 256

// Vector is a dense embedding. Vectors returned by the Encoder are
// L2-normalised, so Dot doubles as cosine similarity.
type Vector [Dim]float32

// Dot returns the inner product of two vectors. For encoder output this is
// the cosine similarity in [-1, 1].
func (v Vector) Dot(u Vector) float64 {
	var s float64
	for i := 0; i < Dim; i++ {
		s += float64(v[i]) * float64(u[i])
	}
	return s
}

// NormDot is the dense scoring kernel: the inner product of two
// encoder-normalised vectors, i.e. their cosine similarity. Nothing served
// calls it: it is the reference internal/vecstore's packed-row kernel —
// which scores every scan and every HNSW graph comparison — is tested
// against, and the dense baseline of vecstore's BenchmarkKernel.
// Pointer arguments avoid the two 1 KiB array copies a value-receiver call
// makes per candidate, and the body is unrolled over four independent
// accumulators so the multiplies pipeline instead of serialising on one
// dependency chain. Callers own the normalisation contract:
// Encoder.Encode output (and vectors persisted from it) is always
// normalised, so no per-call renormalisation happens here.
//
// The summation order is part of the contract, because hits scored by
// different kernels are merged by score and must tie exactly. Any
// equivalent kernel must keep it: accumulator l (l = 0..3) starts at +0.0
// and adds the float64 products of components l, l+4, l+8, … in ascending
// order, each product taken between the two float32 values widened to
// float64; the result is (s0 + s1) + (s2 + s3). A kernel may leave out a
// term only when one factor is +0.0 or -0.0 and the other finite: such a
// product is ±0 and adding it cannot change an accumulator.
func NormDot(a, b *Vector) float64 {
	var s0, s1, s2, s3 float64
	for i := 0; i <= Dim-4; i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm returns the L2 norm.
func (v Vector) Norm() float64 {
	var s float64
	for i := 0; i < Dim; i++ {
		s += float64(v[i]) * float64(v[i])
	}
	return math.Sqrt(s)
}

// IsZero reports whether every component is zero (the embedding of empty
// text).
func (v Vector) IsZero() bool {
	for i := 0; i < Dim; i++ {
		if v[i] != 0 {
			return false
		}
	}
	return true
}

// Cosine returns the cosine similarity of two arbitrary (possibly
// unnormalised) vectors; 0 if either is zero.
func Cosine(a, b Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}

// Encoder converts text to vectors. It is stateless and safe for concurrent
// use; the zero value is ready to use with default feature weights.
type Encoder struct {
	// WordWeight scales word-unigram features (default 1.0).
	WordWeight float64
	// BigramWeight scales word-bigram features (default 0.5). Bigrams
	// capture relation phrases like "place of" + "of birth".
	BigramWeight float64
	// CharWeight scales character-trigram features (default 0.35). Char
	// features let near-miss tokens (population vs populations,
	// schema-styled paths like people/person/place_of_birth) overlap.
	CharWeight float64
}

// NewEncoder returns an encoder with the default feature weights.
func NewEncoder() *Encoder {
	return &Encoder{WordWeight: 1.0, BigramWeight: 0.5, CharWeight: 0.35}
}

func (e *Encoder) weights() (w, b, c float64) {
	w, b, c = e.WordWeight, e.BigramWeight, e.CharWeight
	if w == 0 && b == 0 && c == 0 {
		return 1.0, 0.5, 0.35
	}
	return w, b, c
}

// Encode returns the L2-normalised embedding of text. Empty or
// all-separator text yields the zero vector.
//
// Each feature is a string — "w:" plus a token, "c:" plus a trigram of
// the token padded as "^token$", "b:" plus two tokens joined by a space —
// hashed twice (see addFeature). Both hashes read the string's bytes in
// order, so Encode never builds it: it starts from the hash state after
// the feature's prefix and feeds the rest. The tokens are Tokenize's,
// lowered and padded into one buffer on the stack, so a text of up to 64
// tokens and 256 token bytes encodes without allocating.
func (e *Encoder) Encode(text string) Vector {
	var v Vector
	ww, wb, wc := e.weights()
	var bufArr [384]byte
	var endsArr [65]int
	// Token t (from 1), padded, is buf[ends[t-1]:ends[t]].
	buf, ends := bufArr[:0], append(endsArr[:0], 0)
	for i := 0; i < len(text); {
		j, asIs, next := scanRun(text, i)
		if j > i {
			buf = append(buf, '^')
			if asIs {
				buf = append(buf, text[i:j]...)
			} else {
				buf = appendLower(buf, text[i:j])
			}
			buf = append(buf, '$')
			padded := buf[ends[len(ends)-1]:]
			ends = append(ends, len(buf))
			addFeature(&v, wordPrefix.bytes(padded[1:len(padded)-1]), ww)
			for k := 0; wc != 0 && k+3 <= len(padded); k++ {
				addFeature(&v, charPrefix.byte(padded[k]).byte(padded[k+1]).byte(padded[k+2]), wc)
			}
		}
		i = next
	}
	for t := 2; wb != 0 && t < len(ends); t++ {
		h := bigramPrefix.bytes(buf[ends[t-2]+1 : ends[t-1]-1]).byte(' ')
		addFeature(&v, h.bytes(buf[ends[t-1]+1:ends[t]-1]), wb)
	}
	normalize(&v)
	return v
}

// appendLower appends tok lower-cased as strings.ToLower lowers it: rune
// by rune, tok being a run of letters and digits and so valid UTF-8.
func appendLower(buf []byte, tok string) []byte {
	for _, r := range tok {
		if r < utf8.RuneSelf {
			if 'A' <= r && r <= 'Z' {
				r += 'a' - 'A'
			}
			buf = append(buf, byte(r))
		} else {
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
		}
	}
	return buf
}

// fnvPair is the state of a feature's two hashes: FNV-1 64-bit and FNV-1a
// 64-bit (xor before multiply, an independent second hash for the
// two-bucket trick), both over the bytes fed so far.
type fnvPair struct{ h1, h2 uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// The hash states after each feature kind's prefix.
var (
	wordPrefix   = fnvPair{fnvOffset, fnvOffset}.bytes([]byte("w:"))
	charPrefix   = fnvPair{fnvOffset, fnvOffset}.bytes([]byte("c:"))
	bigramPrefix = fnvPair{fnvOffset, fnvOffset}.bytes([]byte("b:"))
)

func (p fnvPair) byte(c byte) fnvPair {
	return fnvPair{p.h1*fnvPrime ^ uint64(c), (p.h2 ^ uint64(c)) * fnvPrime}
}

func (p fnvPair) bytes(b []byte) fnvPair {
	for _, c := range b {
		p = p.byte(c)
	}
	return p
}

// addFeature adds the feature hashed to h into two buckets with signs
// derived from the hashes (the "hashing trick" with sign bit), spreading
// mass and making accidental collisions cancel rather than compound.
func addFeature(v *Vector, h fnvPair, weight float64) {
	i1 := int(h.h1 % Dim)
	s1 := float32(1)
	if h.h1&(1<<40) != 0 {
		s1 = -1
	}
	i2 := int(h.h2 % Dim)
	s2 := float32(1)
	if h.h2&(1<<40) != 0 {
		s2 = -1
	}
	v[i1] += s1 * float32(weight)
	v[i2] += s2 * float32(weight) * 0.5
}

func normalize(v *Vector) {
	n := v.Norm()
	if n == 0 {
		return
	}
	inv := float32(1 / n)
	for i := 0; i < Dim; i++ {
		v[i] *= inv
	}
}

// Tokenize lower-cases text and splits it into alphanumeric runs. Schema
// punctuation (slashes, underscores, dots) acts as a separator, so the
// Freebase-style relation "people/person/place_of_birth" tokenises to
// [people person place of birth] and overlaps the Wikidata-style label
// "place of birth". This cross-schema overlap is what makes atomic semantic
// querying source-agnostic, the property Table III depends on.
//
// A run that is already lower-case ASCII — most of a Freebase path, every
// number — is returned as a substring of text, so a caller that keeps a
// token beyond the text's lifetime (a map key, say) should clone it.
func Tokenize(text string) []string {
	// Size the slice once: count the places a token byte follows a
	// separator. Bytes of multi-byte runes count as token bytes, which is
	// exact for ASCII text and close enough otherwise (append regrows).
	n, prev := 0, byteSep
	for i := 0; i < len(text); i++ {
		c := byteClass[text[i]]
		if c != byteSep && prev == byteSep {
			n++
		}
		prev = c
	}
	tokens := make([]string, 0, n)
	for i := 0; i < len(text); {
		j, asIs, next := scanRun(text, i)
		if j > i {
			tok := text[i:j]
			if !asIs {
				tok = strings.ToLower(tok)
			}
			tokens = append(tokens, tok)
		}
		i = next
	}
	if len(tokens) == 0 {
		return nil
	}
	return tokens
}

// scanRun scans text from i over one run of letters and digits, which
// ends at j (j == i when text[i:] starts with a separator), and the
// separator after it: the scan resumes at next. asIs says the run is all
// lower-case ASCII.
func scanRun(text string, i int) (j int, asIs bool, next int) {
	j, asIs = i, true
	for j < len(text) {
		switch byteClass[text[j]] {
		case byteSep:
			return j, asIs, j + 1
		case byteKeep:
			j++
		case byteUpper:
			asIs = false
			j++
		default:
			// Invalid UTF-8 decodes to U+FFFD, a separator one byte wide.
			r, w := utf8.DecodeRuneInString(text[j:])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				return j, asIs, j + w
			}
			asIs = false
			j += w
		}
	}
	return j, asIs, j
}

// Byte classes of Tokenize's scan.
const (
	byteSep   uint8 = iota // ASCII separator
	byteKeep               // lower-case ASCII letter or digit: part of a token as it stands
	byteUpper              // upper-case ASCII letter: part of a token once lowered
	byteMulti              // part of a multi-byte rune: the rune decides
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			t[c] = byteKeep
		case 'A' <= c && c <= 'Z':
			t[c] = byteUpper
		case c >= utf8.RuneSelf:
			t[c] = byteMulti
		}
	}
	return t
}()

// Similarity is a convenience that encodes both texts and returns their
// cosine similarity.
func (e *Encoder) Similarity(a, b string) float64 {
	va := e.Encode(a)
	vb := e.Encode(b)
	if va.IsZero() || vb.IsZero() {
		return 0
	}
	return va.Dot(vb)
}
