// Package datasets builds the three evaluation sets from a synthetic world,
// mirroring the paper's benchmark suite (docs/architecture.md, "Layer map"):
//
//   - SimpleQuestions-like: single-hop factoids sampled uniformly over the
//     world's facts (tail-heavy, Freebase-sourced in the paper);
//   - QALD-like: multi-hop chains, comparisons and superlatives over head
//     (prominent) entities (Wikidata-sourced in the paper);
//   - NatureQuestions-like: 50 open-ended questions with three reference
//     answers each, written from the world's ground truth.
//
// Beyond the paper trio, the package builds four scenario packs that
// stress specific failure modes: TemporalQuestions (previous/original
// revisions of time-varying facts), AggregationQuestions (cardinalities
// the graph methods count over retrieved triples), AdversarialQuestions
// (false premises whose gold answer is "unanswerable") and NoisyQuestions
// (chatty, case-mangled surface forms).
package datasets

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/answer"
	"repro/internal/kg"
	"repro/internal/qa"
	"repro/internal/world"
)

// Config controls dataset sizes and sampling.
type Config struct {
	Seed int64
	// SimpleN is the SimpleQuestions subset size (the paper samples a
	// subset of the 100k original).
	SimpleN int
	// QALDN is the multi-hop set size (QALD-10's English test split is a
	// few hundred questions).
	QALDN int
	// NatureN is the open-ended set size (the paper hand-writes 50).
	NatureN int
	// TemporalN sizes the temporal scenario pack (questions about previous
	// or original revisions of time-varying facts).
	TemporalN int
	// AggregationN sizes the aggregation scenario pack (cardinality
	// questions the graph methods answer by counting retrieved triples).
	AggregationN int
	// AdversarialN sizes the adversarial scenario pack (false-premise
	// questions whose gold answer is "unanswerable").
	AdversarialN int
	// NoisyN sizes the noisy-surface scenario pack (chatty, case-mangled
	// paraphrases of single-hop lookups).
	NoisyN int
}

// DefaultConfig matches the paper's evaluation scale, plus the scenario
// packs.
func DefaultConfig() Config {
	return Config{Seed: 7, SimpleN: 400, QALDN: 200, NatureN: 50,
		TemporalN: 60, AggregationN: 60, AdversarialN: 40, NoisyN: 60}
}

// QuickConfig returns small datasets for tests and the quick environment.
func QuickConfig() Config {
	return Config{Seed: 7, SimpleN: 60, QALDN: 40, NatureN: 20,
		TemporalN: 12, AggregationN: 12, AdversarialN: 8, NoisyN: 12}
}

// DefaultSource returns the KG source a dataset is evaluated against by
// default: SimpleQuestions is Freebase-based in the paper, the others use
// Wikidata.
func DefaultSource(datasetName string) kg.Source {
	if datasetName == "SimpleQuestions" {
		return kg.SourceFreebase
	}
	return kg.SourceWikidata
}

// Query maps a dataset question onto the unified request shape.
func Query(method, model string, q qa.Question) answer.Query {
	anchors := []string{q.Intent.Subject}
	if q.Intent.Subject2 != "" {
		anchors = append(anchors, q.Intent.Subject2)
	}
	return answer.Query{
		Text:    q.Text,
		Method:  method,
		Model:   model,
		Open:    q.Open(),
		Anchors: anchors,
	}
}

// Suite bundles the three paper datasets and the four scenario packs.
type Suite struct {
	Simple *qa.Dataset
	QALD   *qa.Dataset
	Nature *qa.Dataset
	// Temporal, Aggregation, Adversarial and Noisy are the scenario packs:
	// stress sets beyond the paper's benchmark trio.
	Temporal    *qa.Dataset
	Aggregation *qa.Dataset
	Adversarial *qa.Dataset
	Noisy       *qa.Dataset
}

// Datasets returns the suite's sets in presentation order.
func (s *Suite) Datasets() []*qa.Dataset {
	return []*qa.Dataset{s.Simple, s.QALD, s.Nature,
		s.Temporal, s.Aggregation, s.Adversarial, s.Noisy}
}

// Build constructs the full suite from a world.
func Build(w *world.World, cfg Config) (*Suite, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &qa.Resolver{W: w}
	simple, err := buildSimple(w, res, rng, cfg.SimpleN)
	if err != nil {
		return nil, fmt.Errorf("datasets: SimpleQuestions: %w", err)
	}
	qald, err := buildQALD(w, res, rng, cfg.QALDN)
	if err != nil {
		return nil, fmt.Errorf("datasets: QALD: %w", err)
	}
	nature, err := buildNature(w, res, rng, cfg.NatureN)
	if err != nil {
		return nil, fmt.Errorf("datasets: NatureQuestions: %w", err)
	}
	// The scenario packs build after the paper trio, drawing from the same
	// rng stream: the trio above stays byte-identical to pre-pack builds
	// (the committed replay baselines depend on that).
	temporal, err := buildTemporal(w, res, rng, cfg.TemporalN)
	if err != nil {
		return nil, fmt.Errorf("datasets: TemporalQuestions: %w", err)
	}
	aggregation, err := buildAggregation(w, res, rng, cfg.AggregationN)
	if err != nil {
		return nil, fmt.Errorf("datasets: AggregationQuestions: %w", err)
	}
	adversarial, err := buildAdversarial(w, res, rng, cfg.AdversarialN)
	if err != nil {
		return nil, fmt.Errorf("datasets: AdversarialQuestions: %w", err)
	}
	noisy, err := buildNoisy(w, res, rng, cfg.NoisyN)
	if err != nil {
		return nil, fmt.Errorf("datasets: NoisyQuestions: %w", err)
	}
	s := &Suite{Simple: simple, QALD: qald, Nature: nature,
		Temporal: temporal, Aggregation: aggregation,
		Adversarial: adversarial, Noisy: noisy}
	for _, d := range s.Datasets() {
		if err := d.Validate(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// singleHopRels are the relations eligible for SimpleQuestions items: every
// relation whose subject kind has enough instances to sample from.
var singleHopRels = []world.RelKey{
	world.RelBornIn, world.RelBirthDate, world.RelOccupation, world.RelAward,
	world.RelEducatedAt, world.RelFieldOfWork, world.RelNotableWork,
	world.RelCitizenOf, world.RelInCountry, world.RelPopulation,
	world.RelCapital, world.RelContinent, world.RelOfficialLang,
	world.RelArea, world.RelInflow, world.RelCovers, world.RelElevation,
	world.RelFlowsThrough, world.RelLength, world.RelFoundedBy,
	world.RelHeadquarters, world.RelIndustry, world.RelProduct,
	world.RelUnivIn, world.RelInception, world.RelCreator, world.RelGenre,
	world.RelPubYear,
}

// buildSimple samples single-hop questions uniformly over facts — the
// tail-heavy regime.
func buildSimple(w *world.World, res *qa.Resolver, rng *rand.Rand, n int) (*qa.Dataset, error) {
	d := &qa.Dataset{Name: "SimpleQuestions", Metric: "hit@1"}
	seen := make(map[string]bool)
	attempts := 0
	for len(d.Questions) < n {
		attempts++
		if attempts > n*200 {
			return nil, fmt.Errorf("could not sample %d questions (got %d)", n, len(d.Questions))
		}
		rel := singleHopRels[rng.Intn(len(singleHopRels))]
		facts := w.FactsByRel(rel)
		if len(facts) == 0 {
			continue
		}
		f := facts[rng.Intn(len(facts))]
		subject := w.Entities[f.Subject].Name
		// Sample among registered paraphrases (roughly a third of items use
		// a non-primary phrasing), exercising the full template registry as
		// real crowd-written questions would.
		tpls := qa.LookupTemplates[rel]
		if len(tpls) == 0 {
			continue
		}
		tpl := tpls[0]
		if len(tpls) > 1 && rng.Intn(3) == 0 {
			tpl = tpls[1+rng.Intn(len(tpls)-1)]
		}
		text := tpl.Render(subject, "")
		if seen[text] {
			continue
		}
		in := qa.Intent{Kind: qa.KindLookup, Subject: subject, Chain: []world.RelKey{rel}}
		golds, err := res.Gold(in)
		if err != nil {
			continue
		}
		seen[text] = true
		d.Questions = append(d.Questions, qa.Question{
			ID: len(d.Questions), Text: text, Intent: in,
			Golds: golds, SourceKG: kg.SourceFreebase,
		})
	}
	return d, nil
}

// buildQALD mixes multi-hop chains (60 %), value/count comparisons (25 %)
// and superlatives (15 %) over head entities.
func buildQALD(w *world.World, res *qa.Resolver, rng *rand.Rand, n int) (*qa.Dataset, error) {
	d := &qa.Dataset{Name: "QALD", Metric: "hit@1"}
	seen := make(map[string]bool)
	heads := map[world.Kind][]int{}
	headOf := func(k world.Kind) []int {
		if _, ok := heads[k]; !ok {
			heads[k] = w.HeadEntities(k, 0.4)
		}
		return heads[k]
	}
	attempts := 0
	for len(d.Questions) < n {
		attempts++
		if attempts > n*300 {
			return nil, fmt.Errorf("could not sample %d questions (got %d)", n, len(d.Questions))
		}
		var (
			text string
			in   qa.Intent
		)
		switch roll := rng.Intn(100); {
		case roll < 60:
			tpl := qa.MultiHopTemplates[rng.Intn(len(qa.MultiHopTemplates))]
			info, _ := world.RelByKey(tpl.Chain[0])
			pool := headOf(info.SubjectKind)
			subject := w.Entities[pool[rng.Intn(len(pool))]].Name
			text = tpl.Render(subject, "")
			in = qa.Intent{Kind: qa.KindLookup, Subject: subject, Chain: tpl.Chain}
		case roll < 85:
			tpl := qa.CompareTemplates[rng.Intn(len(qa.CompareTemplates))]
			info, _ := world.RelByKey(tpl.Chain[0])
			pool := headOf(info.SubjectKind)
			if len(pool) < 2 {
				continue
			}
			i, j := rng.Intn(len(pool)), rng.Intn(len(pool))
			if i == j {
				continue
			}
			a, b := w.Entities[pool[i]].Name, w.Entities[pool[j]].Name
			text = tpl.Render(a, b)
			in = qa.Intent{Kind: tpl.Kind, Subject: a, Subject2: b, Chain: tpl.Chain}
		default:
			tpl := qa.SuperlativeTemplates[rng.Intn(len(qa.SuperlativeTemplates))]
			pool := headOf(world.KindCountry)
			subject := w.Entities[pool[rng.Intn(len(pool))]].Name
			text = tpl.Render(subject, "")
			in = qa.Intent{Kind: qa.KindSuperlative, Subject: subject,
				ValueRel: tpl.ValueRel, FilterRel: tpl.FilterRel}
		}
		if seen[text] {
			continue
		}
		golds, err := res.Gold(in)
		if err != nil {
			continue
		}
		seen[text] = true
		d.Questions = append(d.Questions, qa.Question{
			ID: len(d.Questions), Text: text, Intent: in,
			Golds: golds, SourceKG: kg.SourceWikidata,
		})
	}
	return d, nil
}

// buildNature writes open-ended questions with three reference answers
// each, in the spirit of the paper's hand-built 50-question set: answers
// should be comprehensive, so references realise the full support-fact set
// in three different orders/selections.
func buildNature(w *world.World, res *qa.Resolver, rng *rand.Rand, n int) (*qa.Dataset, error) {
	d := &qa.Dataset{Name: "NatureQuestions", Metric: "rouge-l"}
	seen := make(map[string]bool)
	attempts := 0
	for len(d.Questions) < n {
		attempts++
		if attempts > n*300 {
			return nil, fmt.Errorf("could not sample %d questions (got %d)", n, len(d.Questions))
		}
		tpl := qa.OpenTemplates[rng.Intn(len(qa.OpenTemplates))]
		var subject string
		switch tpl.Kind {
		case qa.KindOpenField:
			pool := w.OfKind(world.KindField)
			subject = w.Entities[pool[rng.Intn(len(pool))]].Name
		case qa.KindOpenProfile:
			pool := w.HeadEntities(kindForProfile(rng), 0.5)
			subject = w.Entities[pool[rng.Intn(len(pool))]].Name
		case qa.KindOpenList:
			info, _ := world.RelByKey(tpl.Chain[0])
			pool := w.HeadEntities(info.SubjectKind, 0.5)
			subject = w.Entities[pool[rng.Intn(len(pool))]].Name
		}
		text := tpl.Render(subject, "")
		if seen[text] {
			continue
		}
		in := qa.Intent{Kind: tpl.Kind, Subject: subject, Chain: tpl.Chain}
		support := res.SupportFacts(in)
		if len(support) < 2 {
			continue
		}
		seen[text] = true
		d.Questions = append(d.Questions, qa.Question{
			ID: len(d.Questions), Text: text, Intent: in,
			Refs:     references(w, support, rng),
			SourceKG: kg.SourceWikidata,
		})
	}
	return d, nil
}

// buildTemporal samples questions about previous/original revisions of the
// world's time-varying facts (population is the only such relation). Every
// subject is guaranteed at least two recorded revisions, so "previous"
// always has a referent.
func buildTemporal(w *world.World, res *qa.Resolver, rng *rand.Rand, n int) (*qa.Dataset, error) {
	d := &qa.Dataset{Name: "TemporalQuestions", Metric: "hit@1"}
	seen := make(map[string]bool)
	cities := w.OfKind(world.KindCity)
	if len(cities) == 0 {
		return nil, fmt.Errorf("world has no cities to ask about")
	}
	attempts := 0
	for len(d.Questions) < n {
		attempts++
		if attempts > n*300 {
			return nil, fmt.Errorf("could not sample %d questions (got %d)", n, len(d.Questions))
		}
		tpl := qa.TemporalTemplates[rng.Intn(len(qa.TemporalTemplates))]
		id := cities[rng.Intn(len(cities))]
		if len(w.FactsSR(id, world.RelPopulation)) < 2 {
			continue
		}
		subject := w.Entities[id].Name
		text := tpl.Render(subject, "")
		if seen[text] {
			continue
		}
		in := qa.Intent{Kind: qa.KindLookup, Subject: subject, Chain: tpl.Chain, TRef: tpl.TRef}
		golds, err := res.Gold(in)
		if err != nil {
			continue
		}
		seen[text] = true
		d.Questions = append(d.Questions, qa.Question{
			ID: len(d.Questions), Text: text, Intent: in,
			Golds: golds, SourceKG: kg.SourceWikidata,
		})
	}
	return d, nil
}

// buildAggregation samples cardinality questions over multi-valued
// relations. The gold is the true fact count; graph methods earn it by
// counting the distinct objects of the retrieved triples.
func buildAggregation(w *world.World, res *qa.Resolver, rng *rand.Rand, n int) (*qa.Dataset, error) {
	d := &qa.Dataset{Name: "AggregationQuestions", Metric: "hit@1"}
	seen := make(map[string]bool)
	attempts := 0
	for len(d.Questions) < n {
		attempts++
		if attempts > n*300 {
			return nil, fmt.Errorf("could not sample %d questions (got %d)", n, len(d.Questions))
		}
		tpl := qa.CountTemplates[rng.Intn(len(qa.CountTemplates))]
		facts := w.FactsByRel(tpl.Chain[0])
		if len(facts) == 0 {
			continue
		}
		f := facts[rng.Intn(len(facts))]
		subject := w.Entities[f.Subject].Name
		text := tpl.Render(subject, "")
		if seen[text] {
			continue
		}
		in := qa.Intent{Kind: qa.KindCount, Subject: subject, Chain: tpl.Chain}
		golds, err := res.Gold(in)
		if err != nil {
			continue
		}
		seen[text] = true
		d.Questions = append(d.Questions, qa.Question{
			ID: len(d.Questions), Text: text, Intent: in,
			Golds: golds, SourceKG: kg.SourceWikidata,
		})
	}
	return d, nil
}

// adversarialRels are the lookup relations the adversarial pack builds
// false-premise questions from.
var adversarialRels = []world.RelKey{
	world.RelPopulation, world.RelCapital, world.RelBornIn, world.RelAward,
	world.RelFoundedBy, world.RelOfficialLang, world.RelLength, world.RelGenre,
}

// buildAdversarial samples unanswerable questions: a well-formed lookup
// template filled with a real entity of the wrong kind ("What is the
// population of Marie Curie?"). The gold answer is qa.Unanswerable; any
// confident guess scores zero.
func buildAdversarial(w *world.World, res *qa.Resolver, rng *rand.Rand, n int) (*qa.Dataset, error) {
	d := &qa.Dataset{Name: "AdversarialQuestions", Metric: "hit@1"}
	seen := make(map[string]bool)
	attempts := 0
	for len(d.Questions) < n {
		attempts++
		if attempts > n*300 {
			return nil, fmt.Errorf("could not sample %d questions (got %d)", n, len(d.Questions))
		}
		rel := adversarialRels[rng.Intn(len(adversarialRels))]
		tpl, ok := qa.PrimaryLookupTemplate(rel)
		if !ok {
			continue
		}
		info, _ := world.RelByKey(rel)
		id := rng.Intn(len(w.Entities))
		ent := w.Entities[id]
		// The premise must genuinely fail: wrong subject kind and no facts.
		if ent.Kind == info.SubjectKind || len(w.FactsSR(id, rel)) > 0 {
			continue
		}
		text := tpl.Render(ent.Name, "")
		if seen[text] {
			continue
		}
		seen[text] = true
		d.Questions = append(d.Questions, qa.Question{
			ID:   len(d.Questions),
			Text: text,
			Intent: qa.Intent{Kind: qa.KindLookup, Subject: ent.Name,
				Chain: []world.RelKey{rel}},
			Golds:    []string{qa.Unanswerable},
			SourceKG: kg.SourceWikidata,
		})
	}
	return d, nil
}

// buildNoisy samples chatty paraphrases of single-hop lookups, lowercasing
// the subject surface about half the time. The intent keeps the canonical
// name — the noise lives only in the question text, which is what subject
// resolution has to see through.
func buildNoisy(w *world.World, res *qa.Resolver, rng *rand.Rand, n int) (*qa.Dataset, error) {
	d := &qa.Dataset{Name: "NoisyQuestions", Metric: "hit@1"}
	seen := make(map[string]bool)
	attempts := 0
	for len(d.Questions) < n {
		attempts++
		if attempts > n*300 {
			return nil, fmt.Errorf("could not sample %d questions (got %d)", n, len(d.Questions))
		}
		tpl := qa.NoisyTemplates[rng.Intn(len(qa.NoisyTemplates))]
		facts := w.FactsByRel(tpl.Chain[0])
		if len(facts) == 0 {
			continue
		}
		f := facts[rng.Intn(len(facts))]
		subject := w.Entities[f.Subject].Name
		surface := subject
		if rng.Intn(2) == 0 {
			surface = strings.ToLower(subject)
		}
		text := tpl.Render(surface, "")
		if seen[text] {
			continue
		}
		in := qa.Intent{Kind: qa.KindLookup, Subject: subject, Chain: tpl.Chain}
		golds, err := res.Gold(in)
		if err != nil {
			continue
		}
		seen[text] = true
		d.Questions = append(d.Questions, qa.Question{
			ID: len(d.Questions), Text: text, Intent: in,
			Golds: golds, SourceKG: kg.SourceWikidata,
		})
	}
	return d, nil
}

// kindForProfile picks an entity kind for "Tell me about X" questions.
func kindForProfile(rng *rand.Rand) world.Kind {
	kinds := []world.Kind{world.KindPerson, world.KindPerson, world.KindCompany, world.KindLake, world.KindMountain}
	return kinds[rng.Intn(len(kinds))]
}

// references produces three reference answers: the full support set in
// canonical order, a shuffled variant, and a trimmed "essentials" variant.
// Together they reward comprehensive, fact-dense answers, as the paper
// intends ("expecting the answer will be comprehensive enough").
func references(w *world.World, support []world.Fact, rng *rand.Rand) []string {
	full := qa.RealizeFacts(w, support)

	shuffled := make([]world.Fact, len(support))
	copy(shuffled, support)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	alt := qa.RealizeFacts(w, shuffled)

	trimmed := support
	if len(trimmed) > 3 {
		trimmed = trimmed[:len(trimmed)*2/3]
	}
	lead := "In short: " + qa.RealizeFacts(w, trimmed)

	return []string{full, alt, lead}
}

// Describe summarises the suite for logs.
func (s *Suite) Describe() string {
	var b strings.Builder
	for _, d := range s.Datasets() {
		fmt.Fprintf(&b, "%s: %d questions (%s)\n", d.Name, len(d.Questions), d.Metric)
	}
	return b.String()
}
