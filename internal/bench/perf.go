package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// PerfArtifact is the machine-readable record of one recall-gate run
// (benchrun -experiment recall -out): CI's recall-gate uploads it and
// testdata/trajectory keeps a committed one. It carries wall-clock
// numbers, so it is a record, not a gate; serving speed is measured by
// `go run ./benchmark`, not here.
type PerfArtifact struct {
	GeneratedAt string     `json:"generated_at"`
	Seed        int64      `json:"seed"`
	Recall      PerfRecall `json:"recall"`
}

// PerfRecall is one ANN recall-gate evaluation: HNSW answer quality and
// p50 speedup against the exact scan over the same corpus.
type PerfRecall struct {
	Corpus         int     `json:"corpus"`
	Queries        int     `json:"queries"`
	K              int     `json:"k"`
	M              int     `json:"m"`
	EfConstruction int     `json:"ef_construction"`
	EfSearch       int     `json:"ef_search"`
	RecallAt1      float64 `json:"recall_at_1"`
	RecallAtK      float64 `json:"recall_at_k"`
	ExactP50MS     float64 `json:"exact_p50_ms"`
	ANNP50MS       float64 `json:"ann_p50_ms"`
	Speedup        float64 `json:"speedup"`
	BuildMS        int64   `json:"build_ms"`
}

// BuildRecallPerf wraps a recall-gate result as an artifact.
func BuildRecallPerf(pr PerfRecall, seed int64, now time.Time) PerfArtifact {
	return PerfArtifact{
		GeneratedAt: now.UTC().Format(time.RFC3339),
		Seed:        seed,
		Recall:      pr,
	}
}

// Write emits the artifact as indented JSON.
func (p PerfArtifact) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("bench: perf artifact: %w", err)
	}
	return nil
}
