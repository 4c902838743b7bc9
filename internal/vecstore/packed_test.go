package vecstore

import (
	"bufio"
	"encoding/binary"
	"math"
	"math/bits"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/world"
)

// checkPackedRow packs row and checks the four contracts of the packed
// form against its dense source: the lane layout, the value table (codes
// in range, one code per distinct bit pattern, padding decoding to +0.0
// and +0.0 in the table only for padding), pack→expand being the identity
// on bit patterns, and the kernels' scores being bit-identical
// to embed.NormDot for the (finite) queries — dot for q, dot2 for q and q2
// together, in either position — and, as the graph scores node with node,
// dot for the row expanded and widened as the query of q's packed form,
// NormDot taking the two in either order.
func checkPackedRow(t testing.TB, q, q2, row *embed.Vector) {
	t.Helper()
	var p packedRows
	p.appendRow(row)
	if p.len() != 1 || p.off[0] != 0 || int(p.off[1]) != len(p.idx) || len(p.idx) != len(p.code) || len(p.idx)%4 != 0 {
		t.Fatalf("row shape: off=%v len(idx)=%d len(code)=%d", p.off, len(p.idx), len(p.code))
	}
	if len(p.tab) != 2 || p.tab[0] != 0 || int(p.tab[1]) != len(p.vals) || len(p.vals) > tableSpan || cap(p.vals)-len(p.vals) < tableSpan {
		t.Fatalf("table shape: tab=%v len(vals)=%d cap(vals)=%d", p.tab, len(p.vals), cap(p.vals))
	}
	for c, x := range p.vals {
		for _, y := range p.vals[:c] {
			if math.Float64bits(x) == math.Float64bits(y) {
				t.Fatalf("table code %d repeats the bits %#016x", c, math.Float64bits(x))
			}
		}
	}
	for e, c := range p.code {
		if int(c) >= len(p.vals) {
			t.Fatalf("entry %d: code %d past a table of %d values", e, c, len(p.vals))
		}
	}
	nonZero := 0
	for _, x := range row {
		if math.Float32bits(x) != 0 {
			nonZero++
		}
	}
	stored := 0
	last := [4]int{-1, -1, -1, -1}
	padded := [4]bool{}
	for e, d := range p.idx {
		l := e & 3
		if math.Float64bits(p.vals[p.code[e]]) == 0 {
			if d != 0 {
				t.Fatalf("entry %d: padding has dimension %d", e, d)
			}
			padded[l] = true
			continue
		}
		stored++
		if padded[l] {
			t.Fatalf("entry %d: lane %d has a component after padding", e, l)
		}
		if int(d)&3 != l || int(d) <= last[l] {
			t.Fatalf("entry %d: dimension %d on lane %d after dimension %d", e, d, l, last[l])
		}
		last[l] = int(d)
	}
	if stored != nonZero {
		t.Fatalf("stored %d components, row has %d non-zero", stored, nonZero)
	}
	wantZero := -1 // +0.0 is code 0 of a row with padding, and no code of one without
	if len(p.idx) > stored {
		wantZero = 0
	}
	if zeroAt := slices.IndexFunc(p.vals, func(x float64) bool { return math.Float64bits(x) == 0 }); zeroAt != wantZero {
		t.Fatalf("+0.0 is table code %d, want %d (%d entries, %d stored)", zeroAt, wantZero, len(p.idx), stored)
	}

	var back embed.Vector
	p.expand(0, &back)
	for d := range row {
		if math.Float32bits(back[d]) != math.Float32bits(row[d]) {
			t.Fatalf("dimension %d: expanded bits %#08x, packed from %#08x", d, math.Float32bits(back[d]), math.Float32bits(row[d]))
		}
	}

	wide, wide2 := widen(q), widen(q2)
	want, want2 := embed.NormDot(q, row), embed.NormDot(q2, row)
	same := func(kernel string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s score %v (%#016x) != NormDot %v (%#016x)", kernel, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	same("dot", p.dot(&wide, 0), want)
	a, b := p.dot2(&wide, &wide2, 0)
	same("dot2 first", a, want)
	same("dot2 second", b, want2)
	b, a = p.dot2(&wide2, &wide, 0)
	same("dot2 swapped first", b, want2)
	same("dot2 swapped second", a, want)

	same("dot, NormDot's arguments swapped", p.dot(&wide, 0), embed.NormDot(row, q))
	var pq packedRows
	pq.appendRow(q)
	wideRow := widen(&back)
	same("dot of the widened row", pq.dot(&wideRow, 0), want)
}

// quickWorldStores renders the -quick world (node.ConfigFor(true)) into
// its two KG stores.
func quickWorldStores(t *testing.T) []*kg.Store {
	t.Helper()
	cfg := world.DefaultConfig()
	cfg.Seed = 42
	cfg.People, cfg.Cities, cfg.Works, cfg.Companies, cfg.Universities = 150, 60, 100, 40, 25
	w, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []*kg.Store{world.WikidataSchema().Render(w), world.FreebaseSchema().Render(w)}
}

// pseudoTriples loads pseudo-triples (Gp lines) captured from real
// pipeline runs over the quick world, both sources.
func pseudoTriples(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("testdata/pseudo_triples.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) < 24 {
		t.Fatalf("only %d pseudo-triples in testdata", len(out))
	}
	return out
}

// TestPackedScoreBitIdenticalOnQuickWorld is the bit-identity contract
// on the data the server scans: every row of both quick-world indexes,
// scored against real pseudo-triple queries — one at a time through dot,
// adjacent pairs through dot2 — gives exactly the float64 embed.NormDot
// gives over the dense vectors, and expands back to the encoder's output.
// So does every row scored the way a graph over the index scores node with
// node (wide, sim) against a spread of other rows, NormDot taking the pair
// in either order.
func TestPackedScoreBitIdenticalOnQuickWorld(t *testing.T) {
	enc := embed.NewEncoder()
	queries := pseudoTriples(t)
	qvs := make([]embed.Vector, len(queries))
	wide := make([][embed.Dim]float64, len(queries))
	for i, q := range queries {
		qvs[i] = enc.Encode(q)
		wide[i] = widen(&qvs[i])
	}
	for _, st := range quickWorldStores(t) {
		idx := Build(enc, st)
		if idx.Len() < 1000 {
			t.Fatalf("%v index has only %d rows", st.Source(), idx.Len())
		}
		graph := &HNSW{a: idx.a, chunks: idx.chunks}
		rows := &idx.chunks[0].rows
		encoded := make([]embed.Vector, idx.Len())
		for r, tr := range idx.chunks[0].triples {
			encoded[r] = enc.Encode(tr.Text())
		}
		for r := range encoded {
			dense := encoded[r]
			var back embed.Vector
			rows.expand(r, &back)
			if back != dense {
				t.Fatalf("%v row %d does not expand to its encoding", st.Source(), r)
			}
			node := graph.wide(int32(r))
			for _, step := range []int{0, 1, 7, 389} {
				o := (r + step) % idx.Len()
				got := graph.sim(&node, int32(o))
				if want, swapped := embed.NormDot(&dense, &encoded[o]), embed.NormDot(&encoded[o], &dense); math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(got) != math.Float64bits(swapped) {
					t.Fatalf("%v node %d with node %d: graph %v != NormDot %v (swapped %v)", st.Source(), r, o, got, want, swapped)
				}
			}
			for i := range qvs {
				j := (i + 1) % len(qvs)
				got, want := rows.dot(&wide[i], r), embed.NormDot(&qvs[i], &dense)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v row %d query %q: packed %v != NormDot %v", st.Source(), r, queries[i], got, want)
				}
				a, b := rows.dot2(&wide[i], &wide[j], r)
				if wantB := embed.NormDot(&qvs[j], &dense); math.Float64bits(a) != math.Float64bits(want) || math.Float64bits(b) != math.Float64bits(wantB) {
					t.Fatalf("%v row %d queries %q, %q: dot2 (%v, %v) != NormDot (%v, %v)", st.Source(), r, queries[i], queries[j], a, b, want, wantB)
				}
			}
		}
	}
}

// vectorFromBits builds a vector from float32 bit patterns (little
// endian, four bytes a component, missing components zero), mapping NaN
// and ±Inf to finite values by clearing the lowest exponent bit.
func vectorFromBits(b []byte) embed.Vector {
	const expMask = 0x7f800000 // all ones = NaN or ±Inf
	var v embed.Vector
	for d := 0; d < embed.Dim && 4*d+4 <= len(b); d++ {
		bits := binary.LittleEndian.Uint32(b[4*d:])
		if bits&expMask == expMask {
			bits &^= 0x00800000
		}
		v[d] = math.Float32frombits(bits)
	}
	return v
}

// bitsOf is vectorFromBits's inverse, for seeding the fuzzer.
func bitsOf(v *embed.Vector) []byte {
	b := make([]byte, 4*embed.Dim)
	for d, x := range v {
		binary.LittleEndian.PutUint32(b[4*d:], math.Float32bits(x))
	}
	return b
}

// packedSeeds are the rows the layout has corner cases for.
func packedSeeds() map[string]embed.Vector {
	negZero := float32(math.Copysign(0, -1))
	subnormal := math.Float32frombits(1)
	seeds := map[string]embed.Vector{"zero row": {}}

	var v embed.Vector
	for d := range v {
		switch d % 5 {
		case 0:
			v[d] = negZero
		case 1:
			v[d] = float32(d) / 300
		case 2:
			v[d] = -float32(d) / 300
		}
	}
	seeds["negative zeros"] = v

	v = embed.Vector{}
	for d := 0; d < embed.Dim; d += 3 {
		v[d] = subnormal * float32(d+1)
	}
	v[7] = -subnormal
	seeds["subnormals"] = v

	v = embed.Vector{}
	for d := range v {
		if d&3 != 2 { // lane 2 stays empty
			v[d] = float32(d+1) / 512
		}
	}
	seeds["empty lane"] = v

	v = embed.Vector{}
	for d := range v { // 64 entries on every lane
		v[d] = float32(d%17-8)/16 + 0.03125
	}
	seeds["fully dense"] = v

	v = embed.Vector{}
	v[0], v[255] = 0.5, -0.5 // a real component at dimension 0 next to padding
	seeds["dimension zero"] = v

	v = embed.Vector{}
	for d := range v {
		if d != 200 { // lane 0 one entry short
			v[d] = float32(d+1) / 256
		}
	}
	seeds["every code"] = v // +0.0 for the padding and 255 distinct values

	v = embed.Vector{}
	for d := range v {
		v[d] = -float32(d+1) / 300
	}
	seeds["all distinct"] = v // 256 distinct values, no padding

	v = embed.Vector{}
	for d := range v {
		v[d] = negZero
	}
	seeds["all negative zeros"] = v // one value, no padding

	v = embed.Vector{}
	for d := range v {
		v[d] = math.MaxFloat32
		if d%2 == 1 {
			v[d] = -math.MaxFloat32
		}
	}
	seeds["largest finite"] = v
	return seeds
}

// TestPackedRowCornerCases runs every seed row against every pair of seed
// queries.
func TestPackedRowCornerCases(t *testing.T) {
	seeds := packedSeeds()
	for name, codes := range map[string]int{"every code": tableSpan, "all distinct": tableSpan, "all negative zeros": 1} {
		var p packedRows
		row := seeds[name]
		p.appendRow(&row)
		if len(p.vals) != codes {
			t.Fatalf("seed %q packs a table of %d values, want %d", name, len(p.vals), codes)
		}
	}
	for rn, row := range seeds {
		for qn, q := range seeds {
			t.Run(rn+"/"+qn, func(t *testing.T) {
				for _, q2 := range seeds {
					checkPackedRow(t, &q, &q2, &row)
				}
			})
		}
	}
}

// FuzzPackedRow checks layout, pack→expand identity and bit-identical
// scoring over arbitrary finite float32 bit patterns for a row and the two
// queries it is scored against.
func FuzzPackedRow(f *testing.F) {
	for _, row := range packedSeeds() {
		for _, q := range packedSeeds() {
			// The second query is the row itself: as varied as the seeds.
			f.Add(bitsOf(&q), bitsOf(&row), bitsOf(&row))
		}
	}
	f.Fuzz(func(t *testing.T, qb, q2b, rb []byte) {
		q, q2, row := vectorFromBits(qb), vectorFromBits(q2b), vectorFromBits(rb)
		checkPackedRow(t, &q, &q2, &row)
	})
}

// TestPackExpandKeepsNonFiniteBits: pack→expand is a bijection on every
// bit pattern, quiet NaN and Inf included (widening quiets a signalling
// NaN, which no encoder produces).
func TestPackExpandKeepsNonFiniteBits(t *testing.T) {
	var v embed.Vector
	for d := range v {
		// Spread over sign, exponent (incl. 0x00 and 0xff) and mantissa.
		v[d] = math.Float32frombits(uint32(d)<<24 | uint32(d)*0x010203)
	}
	v[3] = float32(math.Inf(1))
	v[4] = float32(math.NaN())
	var p packedRows
	p.appendRow(&embed.Vector{})
	p.appendRow(&v)
	var back embed.Vector
	p.expand(1, &back)
	for d := range v {
		if math.Float32bits(back[d]) != math.Float32bits(v[d]) {
			t.Errorf("dimension %d: %#08x came back as %#08x", d, math.Float32bits(v[d]), math.Float32bits(back[d]))
		}
	}
	p.expand(0, &back)
	if back != (embed.Vector{}) {
		t.Error("zero row did not expand to the zero vector")
	}
}

// referenceCandidates is the map + sort selection the bitset replaced,
// kept as the reference: ascending de-duplicated offsets of the triples
// sharing a token with the query.
func referenceCandidates(idx *Sharded, query string) []int32 {
	seen := map[int32]bool{}
	for _, tok := range embed.Tokenize(query) {
		for _, off := range idx.chunks[0].inverted[tok] {
			seen[off] = true
		}
	}
	var out []int32
	for off := int32(0); int(off) < idx.Len(); off++ {
		if seen[off] {
			out = append(out, off)
		}
	}
	return out
}

// rowsOf lists a set's rows the way scan walks them.
func rowsOf(set rowSet) []int32 {
	var rows []int32
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			rows = append(rows, int32(i<<6|bits.TrailingZeros64(w)))
		}
	}
	return rows
}

// TestCandidatesMatchReference compares the bitset selection, as the
// scan consumes it, with the reference on sizes that put the last row on
// either side of a word boundary.
func TestCandidatesMatchReference(t *testing.T) {
	enc := embed.NewEncoder()
	for _, n := range []int{1, 63, 64, 65, 4096} {
		triples := corpus(n)
		// The last row alone carries a token, so a boundary slip loses it.
		triples[n-1].Object = "lastrowonly"
		idx := BuildTriples(enc, triples)
		for _, q := range []string{
			"lastrowonly",
			"Lake Superior area",
			"lake LAKE lake area area", // repeated tokens
			"zzz absent tokens qqq",    // none in the block
			"absent lastrowonly zzz",   // some in the block
			"population 1000 Toronto lastrowonly",
			"",      // no tokens
			"<> //", // separators only: no tokens
		} {
			set := whole(idx).candidates(distinctTokens(q))
			if len(embed.Tokenize(q)) == 0 {
				if set != nil {
					t.Errorf("n=%d %q: token-less query gave a non-nil set", n, q)
				}
				continue
			}
			got := rowsOf(set)
			want := referenceCandidates(idx, q)
			if len(got) != len(want) || set.count() != len(want) {
				t.Fatalf("n=%d %q: %d candidates (count %d), want %d", n, q, len(got), set.count(), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d %q: candidate %d is row %d, want %d", n, q, i, got[i], want[i])
				}
			}
		}
		if got := whole(idx).candidates([]string{"lastrowonly"}); got.count() != 1 {
			t.Errorf("n=%d: last row not selected alone: %d rows", n, got.count())
		}
	}
}

// TestSearchFallsThroughBelowK: when fewer than k rows share a token
// with the query, Search is the full scan; with at least k, it scores
// only the sharing rows.
func TestSearchFallsThroughBelowK(t *testing.T) {
	enc := embed.NewEncoder()
	triples := corpus(200)
	for i := 0; i < 3; i++ {
		triples[50*i+9].Object = "raretoken"
	}
	idx := BuildTriples(enc, triples)
	sameHits := func(a, b []Hit) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Triple.Equal(b[i].Triple) || a[i].Score != b[i].Score {
				return false
			}
		}
		return true
	}
	// Three rows carry the token: k=4 cannot be filled from them.
	if got, want := idx.Search("raretoken", 4), idx.SearchExact("raretoken", 4); len(got) != 4 || !sameHits(got, want) {
		t.Errorf("k=4 over 3 candidates: %v, want the full scan's %v", got, want)
	}
	// k=3 can: exactly the three sharing rows come back.
	got := idx.Search("raretoken", 3)
	if len(got) != 3 {
		t.Fatalf("k=3 over 3 candidates: %d hits", len(got))
	}
	for _, h := range got {
		if h.Triple.Object != "raretoken" {
			t.Errorf("k=3 over 3 candidates returned a row without the token: %v", h.Triple)
		}
	}

	// The boundary where the two scans disagree: exactly k rows share a
	// token (only "x7") with the query, and a row sharing none scores above
	// them on character trigrams. k candidates are enough, so it stays out.
	near := kg.NewTriple("alphas", "populations", "1000")
	idx = BuildTriples(enc, []kg.Triple{
		kg.NewTriple("zeta", "kind", "x7"), near, kg.NewTriple("omicron", "sort", "x7"),
		kg.NewTriple("unrelated", "thing", "here"), kg.NewTriple("upsilon", "type", "x7"),
	})
	const q = "alpha population 100 x7"
	if exact := idx.SearchExact(q, 3); !exact[0].Triple.Equal(near) {
		t.Fatalf("the token-less near match does not win the full scan: %v", exact)
	}
	for _, k := range []int{3, 4} {
		hasNear := false
		for _, h := range idx.Search(q, k) {
			hasNear = hasNear || h.Triple.Equal(near)
		}
		if want := k == 4; hasNear != want { // four slots cannot be filled from three candidates
			t.Errorf("k=%d over 3 candidates: near match returned = %v, want %v", k, hasNear, want)
		}
	}
}
