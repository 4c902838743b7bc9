package llm

import (
	"fmt"
	"strconv"

	"repro/internal/world"
)

// hash64 combines string parts into a deterministic 64-bit value (FNV-1a
// over the parts with separators). All of SimLM's stochastic-looking
// behaviour derives from this, so runs are reproducible bit-for-bit.
func hash64(parts ...string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0x1f
		h *= prime
	}
	for _, p := range parts {
		mix(p)
	}
	// FNV's high bits are weakly mixed for short inputs; finalise with a
	// splitmix64-style avalanche so unit() bits are uniform (coin(p) must
	// actually fire with probability p).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// coin reports whether the deterministic coin with probability p lands
// heads for the given key parts.
func coin(p float64, parts ...string) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return unit(hash64(parts...)) < p
}

// memory is SimLM's parametric knowledge: a gated, corrupted view of the
// world. It never exposes ground truth directly — every read passes the
// knows/corrupt gates.
type memory struct {
	w    *world.World
	p    GradeParams
	seed string
}

// knowProb is the probability of knowing a fact with the given subject
// popularity.
func (m *memory) knowProb(pop float64) float64 {
	e := m.p.PopExponent
	if e <= 0 {
		e = 1
	}
	powed := 1.0
	for i := 0; i < int(e); i++ {
		powed *= pop
	}
	// Fractional remainder of the exponent via linear blend — cheap and
	// monotone, which is all the simulation needs.
	if frac := e - float64(int(e)); frac > 0 {
		powed = powed*(1-frac) + powed*pop*frac
	}
	pr := m.p.KnowBase + m.p.KnowPopWeight*powed
	if pr > 1 {
		pr = 1
	}
	return pr
}

// knows reports whether the model knows the fact at all.
func (m *memory) knows(f world.Fact) bool {
	pop := m.w.FactPopularity(f)
	return coin(m.knowProb(pop), m.seed, "know", strconv.Itoa(f.ID))
}

// corrupted reports whether a known fact is remembered wrongly.
func (m *memory) corrupted(f world.Fact) bool {
	return coin(m.p.CorruptRate, m.seed, "corrupt", strconv.Itoa(f.ID))
}

// belief is the model's recollection of one fact.
type belief struct {
	// Fact is the underlying world fact.
	Fact world.Fact
	// Object is the believed object surface (truth or distortion).
	Object string
	// Correct reports whether the belief matches ground truth.
	Correct bool
}

// recallFact returns the model's belief about a fact, or ok=false when the
// fact is unknown to it. sampleSalt adds temperature-sample variation: at
// temperature > 0, a known fact can flip to a distorted recollection for
// that sample only.
func (m *memory) recallFact(f world.Fact, temperature float64, nonce int) (belief, bool) {
	if !m.knows(f) {
		return belief{}, false
	}
	truth := m.w.ObjectSurface(f)
	if m.corrupted(f) {
		return belief{Fact: f, Object: m.distort(f, "stable"), Correct: false}, true
	}
	if temperature > 0 {
		flip := m.p.TempNoise * temperature
		if coin(flip, m.seed, "temp", strconv.Itoa(f.ID), strconv.Itoa(nonce)) {
			return belief{Fact: f, Object: m.distort(f, "t"+strconv.Itoa(nonce)), Correct: false}, true
		}
	}
	return belief{Fact: f, Object: truth, Correct: true}, true
}

// recallFactBoosted is recallFact with a second chance: structured
// planning (pseudo-graph generation) activates marginal memories that
// plain QA recall misses, at the grade's PlanActivation rate. Activated
// recollections still pass the corruption gate.
func (m *memory) recallFactBoosted(f world.Fact, temperature float64, nonce int) (belief, bool) {
	if b, ok := m.recallFact(f, temperature, nonce); ok {
		return b, true
	}
	if !coin(m.p.PlanActivation, m.seed, "activate", strconv.Itoa(f.ID)) {
		return belief{}, false
	}
	truth := m.w.ObjectSurface(f)
	if m.corrupted(f) {
		return belief{Fact: f, Object: m.distort(f, "stable"), Correct: false}, true
	}
	return belief{Fact: f, Object: truth, Correct: true}, true
}

// recallSRBoosted is recallSR through the activation path.
func (m *memory) recallSRBoosted(subjectID int, rel world.RelKey, temperature float64, nonce int) []belief {
	facts := m.w.FactsSR(subjectID, rel)
	if len(facts) == 0 {
		return nil
	}
	info, _ := world.RelByKey(rel)
	if info.TimeVarying {
		facts = facts[len(facts)-1:]
	}
	var out []belief
	for _, f := range facts {
		if b, ok := m.recallFactBoosted(f, temperature, nonce); ok {
			out = append(out, b)
		}
	}
	return out
}

// recallSRHistory returns beliefs about every revision of (subject,
// relation) in chronological order, without the time-varying collapse
// recallSR applies. Temporal questions need the full revision history; each
// revision passes the usual know/corrupt gates independently (models
// remember updates they saw and miss ones they did not).
func (m *memory) recallSRHistory(subjectID int, rel world.RelKey, temperature float64, nonce int) []belief {
	facts := m.w.FactsSR(subjectID, rel)
	var out []belief
	for _, f := range facts {
		if b, ok := m.recallFact(f, temperature, nonce); ok {
			out = append(out, b)
		}
	}
	return out
}

// recallSR returns the model's beliefs about (subject entity, relation).
// Time-varying relations collapse to the current revision. Multi-valued
// relations return every known value.
func (m *memory) recallSR(subjectID int, rel world.RelKey, temperature float64, nonce int) []belief {
	facts := m.w.FactsSR(subjectID, rel)
	if len(facts) == 0 {
		return nil
	}
	info, _ := world.RelByKey(rel)
	if info.TimeVarying {
		facts = facts[len(facts)-1:]
	}
	var out []belief
	for _, f := range facts {
		if b, ok := m.recallFact(f, temperature, nonce); ok {
			out = append(out, b)
		}
	}
	return out
}

// resolveSubject finds the world entity for a surface name, tolerating
// case differences (Freebase-style lower-cased questions): when several
// entities fold alike, the first in world order.
func (m *memory) resolveSubject(name string) (world.Entity, bool) {
	if e, ok := m.w.EntityByName(name); ok {
		return e, true
	}
	return m.w.EntityByFold(name)
}

// distort returns a wrong-but-plausible object for a fact: another entity
// of the same kind for entity-valued facts, a perturbed literal otherwise.
// salt varies the distortion between stable corruption and per-sample noise.
func (m *memory) distort(f world.Fact, salt string) string {
	h := hash64(m.seed, "distort", strconv.Itoa(f.ID), salt)
	if f.ObjectIsEntity() {
		kind := m.w.Entities[f.Object].Kind
		pool := m.w.OfKind(kind)
		if len(pool) < 2 {
			return m.w.Entities[f.Object].Name
		}
		pick := pool[int(h%uint64(len(pool)))]
		if pick == f.Object {
			pick = pool[int((h+1)%uint64(len(pool)))]
		}
		return m.w.Entities[pick].Name
	}
	return distortLiteral(f.Literal, h)
}

// distortLiteral perturbs a literal: numbers shift by up to ~20 %, dates
// shift the year, everything else gets a distinguishing suffix.
func distortLiteral(lit string, h uint64) string {
	if len(lit) == 10 && lit[4] == '-' && lit[7] == '-' {
		// Date: shift the year by 1..9.
		year, err := strconv.Atoi(lit[:4])
		if err == nil {
			delta := int(h%9) + 1
			if h%2 == 0 {
				delta = -delta
			}
			return fmt.Sprintf("%04d%s", year+delta, lit[4:])
		}
	}
	if v, err := strconv.ParseInt(lit, 10, 64); err == nil && v != 0 {
		span := v / 5
		if span < 7 {
			span = 7
		}
		delta := int64(h%uint64(span)) + 1
		if h%2 == 0 {
			delta = -delta
		}
		return strconv.FormatInt(v+delta, 10)
	}
	return lit + " or so"
}

// guessEntity fabricates an answer entity of the expected kind when the
// model knows nothing: a deterministic pick that is almost surely wrong.
func (m *memory) guessEntity(kind world.Kind, saltParts ...string) string {
	pool := m.w.OfKind(kind)
	if len(pool) == 0 {
		return "something"
	}
	h := hash64(append([]string{m.seed, "guess"}, saltParts...)...)
	return m.w.Entities[pool[int(h%uint64(len(pool)))]].Name
}

// guessLiteral fabricates a literal of plausible shape for a relation.
func (m *memory) guessLiteral(rel world.RelKey, saltParts ...string) string {
	h := hash64(append([]string{m.seed, "guesslit", string(rel)}, saltParts...)...)
	switch rel {
	case world.RelBirthDate:
		return fmt.Sprintf("%04d-%02d-%02d", 1850+int(h%150), 1+int(h>>8%12), 1+int(h>>16%28))
	case world.RelPopulation:
		return strconv.FormatInt(100_000+int64(h%20_000_000), 10)
	case world.RelArea:
		return strconv.FormatInt(500+int64(h%90_000), 10)
	case world.RelElevation:
		return strconv.FormatInt(1800+int64(h%7000), 10)
	case world.RelLength:
		return strconv.FormatInt(80+int64(h%6000), 10)
	case world.RelInception, world.RelPubYear:
		return strconv.FormatInt(1200+int64(h%800), 10)
	default:
		return strconv.FormatInt(int64(h%1_000_000), 10)
	}
}

// guessForRelation fabricates an object appropriate to a relation's range.
func (m *memory) guessForRelation(rel world.RelKey, saltParts ...string) string {
	info, ok := world.RelByKey(rel)
	if !ok {
		return "something"
	}
	if info.ObjectLiteral {
		return m.guessLiteral(rel, saltParts...)
	}
	return m.guessEntity(info.ObjectKind, append(saltParts, string(rel))...)
}
