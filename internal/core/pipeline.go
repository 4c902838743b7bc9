// Package core implements the paper's primary contribution: the PG&AKV
// pipeline — Pseudo-Graph Generation followed by Atomic Knowledge
// Verification and answer generation (paper §III, Fig. 1).
//
// The pipeline is faithful to the published algorithm:
//
//	Step 1  Pseudo-Graph Generation: prompt the LLM for a Cypher program,
//	        execute it on the property-graph engine, decode triples → Gp.
//	Step 2  Semantic query: embed each pseudo-triple, retrieve the top-K
//	        most similar KG triples → Gt.
//	Step 3  Two-step pruning: (a) candidate selection — keep the top-k
//	        subjects of Gt by triple count, k = |subjects(Gp)|;
//	        (b) semantic ranking — per-subject confidence = mean cosine of
//	        its Gt triples, drop below the threshold → Gg.
//	Step 4  Pseudo-graph verification: the LLM edits Gp against Gg
//	        (higher-confidence subjects placed closer to Gp) → Gf.
//	Step 5  Answer generation from the question and Gf.
//
// Every step degrades gracefully: a malformed pseudo-graph yields an empty
// Gp and the pipeline falls through to parametric answering — the
// "Robustness" property of the paper's Table I.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core/exec"
	"repro/internal/cypher"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/vecstore"
)

// PruneStrategy selects how retrieved subjects are pruned before gold-graph
// assembly (an ablation axis; see bench.Sweeps).
type PruneStrategy int

const (
	// PruneTwoStep is the paper's method: candidate selection by triple
	// count, then confidence filtering.
	PruneTwoStep PruneStrategy = iota
	// PruneCountOnly keeps the top-k subjects by count with no confidence
	// filter (step 1 only).
	PruneCountOnly
	// PruneNone keeps every retrieved subject (bounded only by the
	// MaxSubjects safety cap) — the "rely on the LLM to sort it out"
	// regime the paper argues against.
	PruneNone
)

// String names the strategy.
func (p PruneStrategy) String() string {
	switch p {
	case PruneCountOnly:
		return "count-only"
	case PruneNone:
		return "none"
	default:
		return "two-step"
	}
}

// Config holds the pipeline's tunables with the paper's defaults.
type Config struct {
	// TopK is the per-pseudo-triple retrieval depth (paper: 10).
	TopK int
	// ConfidenceThreshold drops subjects whose mean cosine falls below it
	// (paper: 0.7 with Sentence-BERT).
	ConfidenceThreshold float64
	// MaxSubjectTriples caps each subject's block in the gold graph so the
	// verification context stays within a token budget.
	MaxSubjectTriples int
	// MaxPseudoTriples caps how many pseudo-triples are semantically
	// queried (guards against degenerate generations).
	MaxPseudoTriples int
	// Temperature for all LLM calls (the pipeline is greedy by default).
	Temperature float64
	// Prune selects the pruning strategy (default: the paper's two-step).
	Prune PruneStrategy
	// ShuffleGoldOrder randomises the gold graph's subject order instead
	// of the paper's confidence-descending placement ("subjects with
	// higher entity confidence score are placed closer to Gp"). Ablation
	// knob; leave false for the paper's behaviour.
	ShuffleGoldOrder bool
	// MaxSubjects bounds the kept-subject count under PruneNone (and acts
	// as a safety cap otherwise); 0 means 12.
	MaxSubjects int
	// Memo is ignored: every query is encoded by the index's encoder.
	//
	// Deprecated: see Memo.
	Memo *Memo
	// StageTimeout bounds each pipeline stage individually (0 = only the
	// caller's context applies). A stage that exceeds it fails with a
	// deadline error attributed to that stage in the trace spans.
	StageTimeout time.Duration
	// Prompts is ignored: every run renders from the prompt view its
	// caller hands to Answer.
	//
	// Deprecated: it remains only because the benchmark rig's composition
	// still sets it; it goes with the rig's next change.
	Prompts *prompts.Registry
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		TopK:                10,
		ConfidenceThreshold: 0.70,
		MaxSubjectTriples:   12,
		MaxPseudoTriples:    40,
	}
}

// Pipeline wires a KG substrate view and its vector index into the PG&AKV
// flow; each run brings its own LLM client and prompt view. Construct with
// New; safe for concurrent use. Store and index are read through their
// interfaces, so a pipeline can run against a plain frozen store or
// against one immutable snapshot of a live substrate (internal/substrate)
// — either way every step of one run sees the same consistent view.
type Pipeline struct {
	store kg.Reader
	index vecstore.Searcher
	cfg   Config
}

// New builds a pipeline. The index must have been built over the store
// with the same encoder.
func New(store kg.Reader, index vecstore.Searcher, cfg Config) (*Pipeline, error) {
	if store == nil || index == nil {
		return nil, fmt.Errorf("core: nil store or index")
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	if cfg.MaxSubjectTriples <= 0 {
		cfg.MaxSubjectTriples = 12
	}
	if cfg.MaxPseudoTriples <= 0 {
		cfg.MaxPseudoTriples = 40
	}
	if cfg.MaxSubjects <= 0 {
		cfg.MaxSubjects = 12
	}
	return &Pipeline{store: store, index: index, cfg: cfg}, nil
}

// SubjectConfidence is one pruned-subject entry with its score.
type SubjectConfidence struct {
	Subject    string
	Confidence float64
	Triples    int
}

// Trace records every intermediate artefact of one run. The answer
// registry returns it as answer.Result.Trace, which is where trace.Build
// and the example programs read it.
type Trace struct {
	Question   string
	PseudoRaw  string    // the LLM's full Fig. 3 completion
	PseudoCode string    // extracted Cypher
	PseudoErr  error     // decode failure, if any
	Gp         *kg.Graph // pseudo-graph
	Gt         []vecstore.Hit
	Candidates []SubjectConfidence // after step-1 pruning
	Kept       []SubjectConfidence // after step-2 pruning (ordered)
	Gg         *kg.Graph
	Gf         *kg.Graph
	VerifyRaw  string
	AnswerRaw  string
	// Stages holds one span per executed stage — latency, LLM usage,
	// input/output sizes and error class, in execution order.
	Stages []exec.Span
}

// Clone returns a deep copy of the trace: the graphs and every slice field
// are duplicated, so a caller mutating the clone (or the original) cannot
// corrupt the other. Serving-layer caches rely on this to hand each caller
// an isolated trace. A nil trace clones to nil.
func (tr *Trace) Clone() *Trace {
	if tr == nil {
		return nil
	}
	out := *tr
	out.Gp = tr.Gp.Clone()
	out.Gg = tr.Gg.Clone()
	out.Gf = tr.Gf.Clone()
	if tr.Gt != nil {
		out.Gt = append([]vecstore.Hit(nil), tr.Gt...)
	}
	if tr.Candidates != nil {
		out.Candidates = append([]SubjectConfidence(nil), tr.Candidates...)
	}
	if tr.Kept != nil {
		out.Kept = append([]SubjectConfidence(nil), tr.Kept...)
	}
	if tr.Stages != nil {
		out.Stages = append([]exec.Span(nil), tr.Stages...)
	}
	return &out
}

// Result is the pipeline's output for one question.
type Result struct {
	Answer string
	Trace  Trace
}

// generatePseudoGraph performs step 1 over the run's client and view:
// prompt, execute Cypher, decode. Failures produce an empty graph, never
// an error (LLM transport errors still propagate).
func (p *Pipeline) generatePseudoGraph(ctx context.Context, client llm.Client, view *prompts.View, question string, tr *Trace) (*kg.Graph, error) {
	resp, err := client.Complete(ctx, llm.Request{
		Prompt:      view.PseudoGraph(question),
		Temperature: p.cfg.Temperature,
	})
	if err != nil {
		return nil, fmt.Errorf("core: pseudo-graph generation: %w", err)
	}
	if tr != nil {
		tr.PseudoRaw = resp.Text
	}
	code := ExtractCypher(resp.Text)
	if tr != nil {
		tr.PseudoCode = code
	}
	return decodeOrEmpty(code, tr)
}

// decodeOrEmpty decodes a Cypher program into a deduplicated pseudo-graph;
// structural failures yield an empty graph (recorded in the trace), never
// an error.
func decodeOrEmpty(code string, tr *Trace) (*kg.Graph, error) {
	gp, derr := cypher.Decode(code)
	if derr != nil {
		if tr != nil {
			tr.PseudoErr = derr
		}
		return &kg.Graph{}, nil
	}
	return gp.Dedup(), nil
}

// ExtractCypher pulls the Cypher program out of a Fig. 3-style completion:
// the fenced block if present, otherwise every CREATE/MERGE line. A fenced
// block is taken whole, so a MATCH inside it fails to parse.
func ExtractCypher(completion string) string {
	if i := strings.Index(completion, "```"); i >= 0 {
		rest := completion[i+3:]
		if j := strings.Index(rest, "```"); j >= 0 {
			return strings.TrimSpace(rest[:j])
		}
		return strings.TrimSpace(rest)
	}
	var lines []string
	for _, line := range strings.Split(completion, "\n") {
		t := strings.TrimSpace(line)
		upper := strings.ToUpper(t)
		if strings.HasPrefix(upper, "CREATE") || strings.HasPrefix(upper, "MERGE") {
			lines = append(lines, t)
		}
	}
	return strings.Join(lines, "\n")
}

// QueryAndPrune performs steps 2 and 3: semantic query each pseudo-triple,
// then two-step pruning, then assemble the gold graph Gg from the store's
// subject blocks in confidence order.
func (p *Pipeline) QueryAndPrune(gp *kg.Graph, tr *Trace) *kg.Graph {
	if gp.Len() == 0 {
		return &kg.Graph{}
	}
	pseudo := gp.Triples
	if len(pseudo) > p.cfg.MaxPseudoTriples {
		pseudo = pseudo[:p.cfg.MaxPseudoTriples]
	}

	// Step 2: semantic query — top-K per pseudo-triple forms Gt.
	queries := make([]string, len(pseudo))
	for i, t := range pseudo {
		queries[i] = t.Text()
	}
	perTriple := p.index.BatchSearchWith(p.index.Encoder().Encode, queries, p.cfg.TopK)
	var gt []vecstore.Hit
	for _, hits := range perTriple {
		gt = append(gt, hits...)
	}
	if tr != nil {
		tr.Gt = gt
	}
	if len(gt) == 0 {
		return &kg.Graph{}
	}

	// Step 3a: candidate selection — rank subjects by how many Gt triples
	// they appear in; keep the top k, k = |subjects(Gp)|.
	type agg struct {
		count int
		sum   float64
	}
	bySubject := map[string]*agg{}
	for _, h := range gt {
		a := bySubject[h.Triple.Subject]
		if a == nil {
			a = &agg{}
			bySubject[h.Triple.Subject] = a
		}
		a.count++
		a.sum += h.Score
	}
	subjects := make([]string, 0, len(bySubject))
	for s := range bySubject {
		subjects = append(subjects, s)
	}
	sort.Slice(subjects, func(i, j int) bool {
		a, b := bySubject[subjects[i]], bySubject[subjects[j]]
		if a.count != b.count {
			return a.count > b.count
		}
		if a.sum != b.sum {
			return a.sum > b.sum
		}
		return subjects[i] < subjects[j]
	})
	k := len(gp.Subjects())
	if k < 1 {
		k = 1
	}
	if p.cfg.Prune == PruneNone {
		// Keep everything (safety-capped); step 1 is skipped.
		k = p.cfg.MaxSubjects
	}
	if k > p.cfg.MaxSubjects {
		k = p.cfg.MaxSubjects
	}
	if len(subjects) > k {
		subjects = subjects[:k]
	}
	if tr != nil {
		for _, s := range subjects {
			a := bySubject[s]
			tr.Candidates = append(tr.Candidates, SubjectConfidence{
				Subject: s, Confidence: a.sum / float64(a.count), Triples: a.count,
			})
		}
	}

	// Step 3b: semantic ranking — confidence = mean cosine of the
	// subject's Gt triples; drop below threshold; order by confidence.
	//
	// Calibration: the hashing encoder's absolute cosine scale is lower
	// than Sentence-BERT's and differs between schemas (Freebase path
	// tokens depress same-fact similarity). We therefore read the paper's
	// 0.7 threshold on a *relative* scale: each subject's mean cosine is
	// normalised by the best subject's mean, which is scale- and
	// schema-free while preserving the step's intent (drop weakly
	// supported subjects).
	maxMean := 0.0
	for _, s := range subjects {
		a := bySubject[s]
		if m := a.sum / float64(a.count); m > maxMean {
			maxMean = m
		}
	}
	// A maxMean of 0 means no subject had a positive mean cosine (zero
	// vectors, fully disjoint vocabularies): every confidence calibrates
	// to exactly 0 — never NaN from the 0/0 division, see calibrate — so
	// two-step pruning drops all the unsupported candidates and the
	// pipeline degrades to verifying against an empty gold graph.
	kept := make([]SubjectConfidence, 0, len(subjects))
	for _, s := range subjects {
		a := bySubject[s]
		conf := calibrate(a.sum/float64(a.count), maxMean)
		if p.cfg.Prune == PruneTwoStep && conf < p.cfg.ConfidenceThreshold {
			continue
		}
		kept = append(kept, SubjectConfidence{Subject: s, Confidence: conf, Triples: a.count})
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Confidence > kept[j].Confidence })
	if p.cfg.ShuffleGoldOrder {
		shuffleSubjects(kept)
	}
	if tr != nil {
		tr.Kept = kept
	}

	// Assemble Gg: full subject blocks from the store (capped), in
	// confidence order — the store's SR ordering keeps time-varying facts
	// chronological within each block — plus a *chain-gated* one-hop
	// expansion. When the pseudo-graph planned a chain (some pseudo
	// triple's object is itself a pseudo subject), the corresponding gold
	// triples' objects are bridging entities, and a few of their own
	// triples are added so the verified first hop ("X born in TrueCity")
	// can chain into the bridge's facts ("TrueCity country ..."). Open
	// questions plan flat star graphs, so no expansion happens and the
	// gold graph stays focused.
	chainRels := chainRelations(gp)
	gg := &kg.Graph{}
	addedSubject := map[string]bool{}
	var expansion []string
	for _, sc := range kept {
		block := p.store.Subject(sc.Subject)
		if len(block) > p.cfg.MaxSubjectTriples {
			block = block[:p.cfg.MaxSubjectTriples]
		}
		gg.Add(block...)
		addedSubject[sc.Subject] = true
		for _, t := range block {
			if p.store.HasSubject(t.Object) && relationInSet(t.Relation, chainRels) {
				expansion = append(expansion, t.Object)
			}
		}
	}
	const expansionCap = 6
	for _, obj := range expansion {
		if addedSubject[obj] {
			continue
		}
		addedSubject[obj] = true
		block := p.store.Subject(obj)
		if len(block) > expansionCap {
			block = block[:expansionCap]
		}
		gg.Add(block...)
	}
	return gg
}

// chainRelations returns the relation surfaces of pseudo-triples whose
// object the pseudo-graph also uses as a subject — the chain hops the LLM
// planned through.
func chainRelations(gp *kg.Graph) []string {
	subjects := map[string]bool{}
	for _, t := range gp.Triples {
		subjects[strings.ToLower(t.Subject)] = true
	}
	var rels []string
	seen := map[string]bool{}
	for _, t := range gp.Triples {
		if subjects[strings.ToLower(t.Object)] && !seen[t.Relation] {
			seen[t.Relation] = true
			rels = append(rels, t.Relation)
		}
	}
	return rels
}

// relationInSet reports whether a KG relation surface shares vocabulary
// with any chain relation (token overlap coefficient >= 0.5).
func relationInSet(relation string, set []string) bool {
	if len(set) == 0 {
		return false
	}
	rt := tokenSet(relation)
	for _, other := range set {
		ot := tokenSet(other)
		small, big := rt, ot
		if len(big) < len(small) {
			small, big = big, small
		}
		if len(small) == 0 {
			continue
		}
		inter := 0
		for tok := range small {
			if big[tok] {
				inter++
			}
		}
		if float64(inter)/float64(len(small)) >= 0.5 {
			return true
		}
	}
	return false
}

// tokenSet returns the distinct tokens of a surface.
func tokenSet(s string) map[string]bool {
	out := map[string]bool{}
	for _, t := range embed.Tokenize(s) {
		out[t] = true
	}
	return out
}

// verify performs step 4 over the run's client and view: the LLM edits Gp
// against Gg. With an empty Gg there is nothing to verify against and Gp
// passes through unchanged.
func (p *Pipeline) verify(ctx context.Context, client llm.Client, view *prompts.View, question string, gp, gg *kg.Graph, tr *Trace) (*kg.Graph, error) {
	if gg.Len() == 0 {
		return gp, nil
	}
	goldBlocks := gg.EntityBlocks(gg.Subjects())
	resp, err := client.Complete(ctx, llm.Request{
		Prompt:      view.Verify(question, goldBlocks, gp.String()),
		Temperature: p.cfg.Temperature,
	})
	if err != nil {
		return nil, fmt.Errorf("core: verification: %w", err)
	}
	if tr != nil {
		tr.VerifyRaw = resp.Text
	}
	gf, perr := kg.ParseGraph(resp.Text)
	if perr != nil || gf.Len() == 0 {
		// Unusable verification output: fall back to the pseudo-graph
		// rather than failing the question.
		return gp, nil
	}
	return gf, nil
}

// answerFromGraph performs step 5 over the run's client and view: answer
// from the question and a reference graph (Gf, or Gp in the "w/ Gp"
// ablation).
func (p *Pipeline) answerFromGraph(ctx context.Context, client llm.Client, view *prompts.View, question string, graph *kg.Graph, tr *Trace) (string, error) {
	text := ""
	if graph != nil {
		text = graph.String()
	}
	resp, err := client.Complete(ctx, llm.Request{
		Prompt:      view.AnswerFromGraph(question, text),
		Temperature: p.cfg.Temperature,
	})
	if err != nil {
		return "", fmt.Errorf("core: answer generation: %w", err)
	}
	if tr != nil {
		tr.AnswerRaw = resp.Text
	}
	return resp.Text, nil
}

// shuffleSubjects deterministically permutes the kept subjects (FNV-keyed
// Fisher-Yates) — the ShuffleGoldOrder ablation.
func shuffleSubjects(kept []SubjectConfidence) {
	h := uint64(1469598103934665603)
	for _, sc := range kept {
		for i := 0; i < len(sc.Subject); i++ {
			h ^= uint64(sc.Subject[i])
			h *= 1099511628211
		}
	}
	for i := len(kept) - 1; i > 0; i-- {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		j := int(h % uint64(i+1))
		kept[i], kept[j] = kept[j], kept[i]
	}
}

// calibrate maps a raw mean cosine into the relative confidence scale the
// paper's 0.7 threshold is applied to (see QueryAndPrune). Degenerate
// inputs — non-positive means or a zero maxMean denominator — calibrate to
// 0 instead of dividing through to NaN/Inf. NaN needs its own check: every
// comparison against NaN is false, so `mean <= 0` alone would let it
// through the guard.
func calibrate(mean, maxMean float64) float64 {
	if math.IsNaN(mean) || math.IsNaN(maxMean) || mean <= 0 || maxMean <= 0 {
		return 0
	}
	c := mean / maxMean
	if c > 1 {
		c = 1
	}
	return c
}
