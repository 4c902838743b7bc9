package llm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/prompts"
	"repro/internal/qa"
	"repro/internal/world"
)

// completeGraphQA handles the Fig. 5 task: answer the problem using the
// provided graph, marking the answer entity with {...}. Per the prompt, an
// empty graph licenses parametric answering; a non-empty graph dominates
// the model's attention — if the needed chain is absent it answers from
// whatever the graph offers (context dominance), which is exactly why raw
// question-level RAG underperforms on multi-hop questions.
func (s *SimLM) completeGraphQA(req Request) (string, error) {
	parts, err := prompts.ExtractGraphQAParts(req.Prompt)
	if err != nil {
		return "", err
	}
	graph, gerr := kg.ParseGraph(parts.Graph)
	if gerr != nil || graph.Len() == 0 {
		// Empty graph: the prompt says answer from own knowledge; the
		// model behaves like CoT.
		return s.completeParametric(rewriteAsProblem(req, parts.Problem), true)
	}
	intent, perr := qa.Parse(parts.Problem)
	if perr != nil {
		return s.bestEffortFromGraph(parts.Problem, graph), nil
	}
	if intent.IsOpen() {
		return s.openFromGraph(parts.Problem, intent, graph, req), nil
	}
	return s.preciseFromGraph(parts.Problem, intent, graph, req), nil
}

// rewriteAsProblem reshapes a graph-QA request into a bare CoT request for
// the parametric fallback path.
func rewriteAsProblem(req Request, problem string) Request {
	return Request{
		Prompt:      "think step by step\n" + prompts.MarkerProblem + " \"" + problem + "\"",
		Temperature: req.Temperature,
		Nonce:       req.Nonce,
	}
}

// findHop locates the graph triples whose subject matches cur and whose
// relation surface realises rel, in graph order. Subject matching is the
// model's reading, not string equality: case folds, and a mangled name
// ("Thealeprurk Stadreltornd") still matches its source ("Thealeprurk
// Stadreltorndman") when they share most name tokens.
func findHop(graph *kg.Graph, cur string, rel world.RelKey) []kg.Triple {
	var out []kg.Triple
	for _, t := range graph.Triples {
		if !subjectMatches(t.Subject, cur) {
			continue
		}
		if relMatches(t.Relation, rel) {
			out = append(out, t)
		}
	}
	return out
}

// subjectReadEncoder scores fuzzy name matches; reading tolerance is an
// LLM capability, independent of any model instance, so one shared encoder
// suffices.
var subjectReadEncoder = embed.NewEncoder()

// subjectMatches reports whether two entity surfaces plausibly name the
// same entity: case-fold equality, a token overlap coefficient of at least
// 0.5 for multi-token names, or character-level similarity above 0.25 (a
// lightly mangled spelling still reads as its source inside a small graph;
// heavily mangled ones — most of a long name's middle gone — do not, which
// is the intended tail-entity failure mode).
func subjectMatches(a, b string) bool {
	if strings.EqualFold(strings.TrimSpace(a), strings.TrimSpace(b)) {
		return true
	}
	if relOverlapSim(a, b) >= 0.5 && len(embed.Tokenize(a)) > 1 && len(embed.Tokenize(b)) > 1 {
		return true
	}
	return subjectReadEncoder.Similarity(a, b) >= 0.25
}

// preciseFromGraph walks the intent inside the graph.
func (s *SimLM) preciseFromGraph(problem string, intent qa.Intent, graph *kg.Graph, req Request) string {
	if s.premiseMismatch(intent) && coin(s.params.PremiseCheckRate, s.seed, "premise", problem) {
		return fmt.Sprintf("The graph offers nothing for that premise; the answer is {%s}.", qa.Unanswerable)
	}
	switch intent.Kind {
	case qa.KindLookup:
		cur := intent.Subject
		for hop, rel := range intent.Chain {
			hits := findHop(graph, cur, rel)
			if len(hits) == 0 {
				return s.bestEffortFromGraph(problem, graph)
			}
			// Time-varying values appear in chronological order; the
			// prompt instructs picking the last. Other relations take the
			// first (highest-ranked) hit.
			info, _ := world.RelByKey(rel)
			obj := hits[0].Object
			if info.TimeVarying {
				obj = hits[len(hits)-1].Object
				switch intent.TRef {
				case qa.TemporalPrevious:
					if len(hits) < 2 {
						return s.bestEffortFromGraph(problem, graph)
					}
					obj = hits[len(hits)-2].Object
				case qa.TemporalOriginal:
					obj = hits[0].Object
				}
			}
			if hop == len(intent.Chain)-1 {
				return fmt.Sprintf("Based on the [graph] above, the answer is {%s}.", obj)
			}
			cur = obj
		}
		return s.bestEffortFromGraph(problem, graph)
	case qa.KindCount:
		return s.countFromGraph(problem, intent, graph, req)
	case qa.KindCompareCount:
		a := len(findHop(graph, intent.Subject, intent.Chain[0]))
		b := len(findHop(graph, intent.Subject2, intent.Chain[0]))
		switch {
		case a == 0 && b == 0:
			// The graph is silent on both: the model still knows the
			// answer is one of the two named subjects and guesses.
			return s.comparisonGuess(problem, intent, req)
		case a >= b:
			return fmt.Sprintf("Based on the [graph] above, {%s} covers more (%d vs %d).", intent.Subject, a, b)
		default:
			return fmt.Sprintf("Based on the [graph] above, {%s} covers more (%d vs %d).", intent.Subject2, b, a)
		}
	case qa.KindCompareValue:
		av, aok := lastNumeric(findHop(graph, intent.Subject, intent.Chain[0]))
		bv, bok := lastNumeric(findHop(graph, intent.Subject2, intent.Chain[0]))
		switch {
		case aok && bok && av >= bv:
			return fmt.Sprintf("Based on the [graph] above, {%s} is larger (%g vs %g).", intent.Subject, av, bv)
		case aok && bok:
			return fmt.Sprintf("Based on the [graph] above, {%s} is larger (%g vs %g).", intent.Subject2, bv, av)
		default:
			return s.comparisonGuess(problem, intent, req)
		}
	case qa.KindSuperlative:
		best, bestV, found := "", -1.0, false
		for _, t := range graph.Triples {
			if !relMatches(t.Relation, intent.ValueRel) {
				continue
			}
			if v, ok := parseNumeric(t.Object); ok && v > bestV {
				bestV, best, found = v, t.Subject, true
			}
		}
		if !found {
			return s.bestEffortFromGraph(problem, graph)
		}
		return fmt.Sprintf("Based on the [graph] above, the largest is {%s} with %g.", best, bestV)
	default:
		return s.bestEffortFromGraph(problem, graph)
	}
}

// countFromGraph answers a cardinality question by genuinely aggregating
// over the retrieved graph: it tags the triples that realise the counted
// relation from the question's subject and counts their distinct objects.
// A mangled subject that still matches counts as the asked-about entity,
// as the model reads it. Counting happens over the graph, not in numeric
// recall — the point of the aggregation pack. When nothing is tagged
// there is no distinct object, and the model falls back to memory.
func (s *SimLM) countFromGraph(problem string, intent qa.Intent, graph *kg.Graph, req Request) string {
	rel := intent.Chain[0]
	objects := map[string]bool{}
	for _, t := range graph.Triples {
		if subjectMatches(t.Subject, intent.Subject) && relMatches(t.Relation, rel) {
			objects[t.Object] = true
		}
	}
	if len(objects) == 0 {
		return s.countParametric(problem, intent, req)
	}
	return fmt.Sprintf("Counting the matching triples in the [graph] above gives {%d}.", len(objects))
}

// comparisonGuess picks one of a comparison's two subjects when the graph
// offers no usable evidence — a binary guess, right half the time, exactly
// as the parametric paths behave.
func (s *SimLM) comparisonGuess(problem string, intent qa.Intent, req Request) string {
	pick := intent.Subject
	if hash64(s.seed, "gcmpguess", problem, strconv.Itoa(req.Nonce))%2 == 0 {
		pick = intent.Subject2
	}
	return fmt.Sprintf("The graph does not settle it, but I believe {%s}.", pick)
}

// bestEffortFromGraph is context dominance: unable to complete the needed
// reasoning inside the graph, the model answers with the object of the
// triple most similar to the question — plausible-looking and usually
// wrong for multi-hop questions.
func (s *SimLM) bestEffortFromGraph(problem string, graph *kg.Graph) string {
	enc := embed.NewEncoder()
	qv := enc.Encode(problem)
	best := graph.Triples[0]
	bestScore := -1.0
	for _, t := range graph.Triples {
		if score := qv.Dot(enc.Encode(t.Text())); score > bestScore {
			bestScore = score
			best = t
		}
	}
	return fmt.Sprintf("Based on the [graph] above, it appears the answer is {%s}.", best.Object)
}

// lastNumeric parses the last numeric object in a hit list.
func lastNumeric(ts []kg.Triple) (float64, bool) {
	for i := len(ts) - 1; i >= 0; i-- {
		if v, ok := parseNumeric(ts[i].Object); ok {
			return v, true
		}
	}
	return 0, false
}

// openFromGraph composes an open-ended answer grounded in the graph:
// every graph triple is realised as a sentence. Strict-adherence grades
// stop there; looser grades blend in parametric beliefs about the support
// set, which widens coverage when the graph is narrow (the GPT-3.5 vs
// GPT-4 asymmetry of Tables IV/V).
func (s *SimLM) openFromGraph(problem string, intent qa.Intent, graph *kg.Graph, req Request) string {
	var parts []string
	parts = append(parts, "Based on the graph above:")
	if !s.params.StrictGraphAdherence {
		// Loose models pad graph-grounded answers with their usual prose.
		h := hash64(s.seed, "gfiller", problem)
		for i := 0; i < s.params.FillerSentences/2; i++ {
			idx := int((h >> (uint(i%8) * 7)) % uint64(len(fillerSentences)))
			parts = append(parts, fillerSentences[idx])
		}
	}
	// Realise triples. Time-varying relations collapse to their last
	// occurrence (per the prompt); multi-valued relations keep every
	// distinct object — "the products of X" must list all of them.
	lastOf := map[string]kg.Triple{}
	var order []string
	for _, t := range graph.Triples {
		key := strings.ToLower(t.Subject) + "\x00" + strings.ToLower(t.Relation)
		timeVarying := false
		if rel, ok := world.SurfaceToRel(t.Relation); ok {
			if info, ok := world.RelByKey(rel); ok {
				timeVarying = info.TimeVarying
			}
		}
		if !timeVarying {
			key += "\x00" + strings.ToLower(t.Object)
		}
		if _, ok := lastOf[key]; !ok {
			order = append(order, key)
		}
		lastOf[key] = t
	}
	for _, key := range order {
		t := lastOf[key]
		if rel, ok := world.SurfaceToRel(t.Relation); ok {
			parts = append(parts, qa.Realize(t.Subject, rel, t.Object))
		} else {
			parts = append(parts, fmt.Sprintf("%s %s %s.", t.Subject, t.Relation, t.Object))
		}
	}
	if !s.params.StrictGraphAdherence {
		// Blend in parametric beliefs not already covered.
		for _, f := range s.res.SupportFacts(intent) {
			key := strings.ToLower(s.w.Entities[f.Subject].Name) + "\x00" +
				strings.ToLower(naturalSurface[f.Rel])
			if _, covered := lastOf[key]; covered {
				continue
			}
			if !coin(s.params.OpenRecallFrac, s.seed, "gblend", problem, strconv.Itoa(f.ID)) {
				continue
			}
			if b, known := s.mem.recallFact(f, req.Temperature, req.Nonce); known {
				parts = append(parts, qa.Realize(s.w.Entities[f.Subject].Name, f.Rel, b.Object))
			}
		}
	}
	return strings.Join(parts, " ")
}
