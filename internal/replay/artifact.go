package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ArtifactVersion is the artifact format version Encode stamps.
const ArtifactVersion = 1

// Virtual latency model: a pure function of the work a request did, so
// latency percentiles are deterministic and a p95 gate trips on genuine
// extra work (more LLM calls, fatter prompts) rather than machine noise.
// The weights approximate a hosted LLM's cost shape — a per-call round
// trip plus per-token streaming cost, completion tokens slower than
// prompt ingestion — in virtual microseconds.
const (
	virtualPerCallUS            = 250_000
	virtualPerPromptTokenUS     = 150
	virtualPerCompletionTokenUS = 2_000
)

// VirtualLatencyUS computes a record's virtual latency from its usage
// counters.
func VirtualLatencyUS(llmCalls, promptTokens, completionTokens int) int64 {
	return int64(llmCalls)*virtualPerCallUS +
		int64(promptTokens)*virtualPerPromptTokenUS +
		int64(completionTokens)*virtualPerCompletionTokenUS
}

// LatencyMS is a virtual-latency percentile summary in milliseconds.
type LatencyMS struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
}

// MethodReport is one method's replay aggregate.
type MethodReport struct {
	// N is the number of replayed cells; Errors of them failed, bucketed
	// by class in ErrorsByClass.
	N             int            `json:"n"`
	Errors        int            `json:"errors"`
	ErrorsByClass map[string]int `json:"errors_by_class,omitempty"`
	// Accuracy is the mean score (Hit@1 / ROUGE-L-f1) as a percentage,
	// rounded to 4 decimals so float formatting can never wobble a byte.
	Accuracy float64 `json:"accuracy"`
	// AnswerDrift counts cells whose replayed answer text differs from the
	// recorded one; EpochDrift counts cells served from a different
	// substrate epoch than recorded, and CacheHits cells the recording
	// itself served from cache (their zero usage would poison cost
	// comparisons, so drift in those is substrate/cache churn, not method
	// regression).
	AnswerDrift int `json:"answer_drift"`
	EpochDrift  int `json:"epoch_drift"`
	CacheHits   int `json:"cache_hits"`
	// Token cost of the replay run.
	LLMCalls         int `json:"llm_calls"`
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	// Latency is the virtual-latency percentile summary.
	Latency LatencyMS `json:"latency"`
}

// TotalTokens is the scalar the token-inflation gate compares.
func (m MethodReport) TotalTokens() int { return m.PromptTokens + m.CompletionTokens }

// Artifact is one replay run's full result: the suite pin it ran under
// and a per-method report. Encode produces canonical bytes — same suite,
// same binary, same artifact, byte for byte.
type Artifact struct {
	Version int    `json:"artifact_version"`
	Seed    int64  `json:"seed"`
	Quick   bool   `json:"quick"`
	Cells   int    `json:"cells"`
	Note    string `json:"note,omitempty"`
	// Methods maps method name to its report; encoding/json emits map
	// keys sorted, which keeps the artifact canonical.
	Methods map[string]MethodReport `json:"methods"`
}

// Encode renders the artifact as canonical indented JSON with a trailing
// newline. Determinism: struct fields emit in declaration order, map keys
// sort, and every float is pre-rounded.
func (a Artifact) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return nil, fmt.Errorf("replay: encoding artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeArtifact parses an artifact produced by Encode.
func DecodeArtifact(data []byte) (Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return Artifact{}, fmt.Errorf("replay: decoding artifact: %w", err)
	}
	if a.Version != ArtifactVersion {
		return Artifact{}, fmt.Errorf("replay: artifact version %d, this binary reads version %d", a.Version, ArtifactVersion)
	}
	return a, nil
}

// methodAgg accumulates one method's cells during a replay run.
type methodAgg struct {
	n, errors     int
	errorsByClass map[string]int
	scoreSum      float64
	answerDrift   int
	epochDrift    int
	cacheHits     int
	llmCalls      int
	promptTokens  int
	complTokens   int
	virtualUS     []int64
}

func newMethodAgg() *methodAgg {
	return &methodAgg{errorsByClass: map[string]int{}}
}

// add folds one replayed cell in: rec is the recorded baseline cell, cur
// the freshly replayed one (same question, method, model, KG).
func (a *methodAgg) add(rec, cur trace.Record) {
	a.n++
	if cur.Error != "" {
		a.errors++
		a.errorsByClass[cur.ErrorClass.String()]++
	}
	a.scoreSum += metrics.Score(cur.Answer, rec.Open, rec.Refs, rec.Golds)
	if cur.Answer != rec.Answer {
		a.answerDrift++
	}
	if cur.Epoch != rec.Epoch {
		a.epochDrift++
	}
	if rec.CacheHit {
		a.cacheHits++
	}
	a.llmCalls += cur.LLMCalls
	a.promptTokens += cur.PromptTokens
	a.complTokens += cur.CompletionTokens
	a.virtualUS = append(a.virtualUS, VirtualLatencyUS(cur.LLMCalls, cur.PromptTokens, cur.CompletionTokens))
}

func (a *methodAgg) report() MethodReport {
	// Integer virtual latencies through the integer nearest-rank
	// percentile: two runs over identical inputs can never differ in the
	// last float bit.
	sorted := slices.Clone(a.virtualUS)
	slices.Sort(sorted)
	r := MethodReport{
		N:                a.n,
		Errors:           a.errors,
		Accuracy:         round4(a.scoreSum / float64(a.n) * 100),
		AnswerDrift:      a.answerDrift,
		EpochDrift:       a.epochDrift,
		CacheHits:        a.cacheHits,
		LLMCalls:         a.llmCalls,
		PromptTokens:     a.promptTokens,
		CompletionTokens: a.complTokens,
		Latency: LatencyMS{
			P50: round4(float64(metrics.Percentile(sorted, 50)) / 1000),
			P95: round4(float64(metrics.Percentile(sorted, 95)) / 1000),
			P99: round4(float64(metrics.Percentile(sorted, 99)) / 1000),
		},
	}
	if len(a.errorsByClass) > 0 {
		r.ErrorsByClass = a.errorsByClass
	}
	return r
}

func buildArtifact(meta SuiteMeta, agg map[string]*methodAgg) Artifact {
	art := Artifact{
		Version: ArtifactVersion,
		Seed:    meta.Seed,
		Quick:   meta.Quick,
		Methods: make(map[string]MethodReport, len(agg)),
	}
	for method, a := range agg {
		art.Methods[method] = a.report()
		art.Cells += a.n
	}
	return art
}

// round4 rounds to 4 decimal places, normalizing negative zero.
func round4(f float64) float64 {
	r := math.Round(f*10_000) / 10_000
	if r == 0 {
		return 0
	}
	return r
}

// Summary renders a short human-readable table of the artifact (methods
// sorted by name).
func (a Artifact) Summary() string {
	methods := make([]string, 0, len(a.Methods))
	for m := range a.Methods {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "replay artifact: seed=%d quick=%v cells=%d\n", a.Seed, a.Quick, a.Cells)
	for _, m := range methods {
		r := a.Methods[m]
		fmt.Fprintf(&buf, "  %-8s n=%-4d acc=%7.3f%%  errs=%-3d drift=%-3d tokens=%-7d p95=%.1fms\n",
			m, r.N, r.Accuracy, r.Errors, r.AnswerDrift, r.TotalTokens(), r.Latency.P95)
	}
	return buf.String()
}
