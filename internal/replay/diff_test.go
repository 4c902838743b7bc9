package replay

import (
	"os"
	"strings"
	"testing"

	"repro/internal/failure"
)

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// baselineArtifact is a hand-built healthy artifact the gate tests doctor.
func baselineArtifact() Artifact {
	return Artifact{
		Version: ArtifactVersion,
		Seed:    42,
		Quick:   true,
		Cells:   12,
		Methods: map[string]MethodReport{
			"Ours": {N: 6, Accuracy: 83.3333, LLMCalls: 18, PromptTokens: 4000, CompletionTokens: 600,
				Latency: LatencyMS{P50: 900, P95: 1500, P99: 1600}},
			"CoT": {N: 6, Accuracy: 50, LLMCalls: 6, PromptTokens: 900, CompletionTokens: 300,
				Latency: LatencyMS{P50: 400, P95: 600, P99: 650}},
		},
	}
}

func findKinds(rep Report) map[string]bool {
	kinds := map[string]bool{}
	for _, f := range rep.Findings {
		kinds[f.Method+"/"+f.Kind] = true
	}
	return kinds
}

func TestDiffCleanPass(t *testing.T) {
	b := baselineArtifact()
	rep := Diff(b, b, DefaultThresholds())
	if !rep.OK() || len(rep.Findings) != 0 {
		t.Fatalf("identical artifacts must pass clean: %s", rep.Format())
	}
	if !strings.Contains(rep.Format(), "no changes") {
		t.Errorf("clean format: %q", rep.Format())
	}
}

// TestDiffTripsOnAccuracyDrop proves the gate fails on an injected
// accuracy regression (an acceptance criterion).
func TestDiffTripsOnAccuracyDrop(t *testing.T) {
	b := baselineArtifact()
	cur := baselineArtifact()
	m := cur.Methods["Ours"]
	m.Accuracy = b.Methods["Ours"].Accuracy - 5
	cur.Methods["Ours"] = m
	rep := Diff(b, cur, DefaultThresholds())
	if rep.OK() {
		t.Fatalf("gate passed a 5pp accuracy drop: %s", rep.Format())
	}
	if !findKinds(rep)["Ours/accuracy-drop"] {
		t.Fatalf("missing accuracy-drop finding: %s", rep.Format())
	}
	// A drop within the tolerance stays green.
	m.Accuracy = b.Methods["Ours"].Accuracy - 0.4
	cur.Methods["Ours"] = m
	if rep := Diff(b, cur, DefaultThresholds()); !rep.OK() {
		t.Fatalf("0.4pp drop should pass a 0.5pp gate: %s", rep.Format())
	}
}

// TestDiffTripsOnP95Inflation proves the gate fails on an injected
// latency regression (an acceptance criterion).
func TestDiffTripsOnP95Inflation(t *testing.T) {
	b := baselineArtifact()
	cur := baselineArtifact()
	m := cur.Methods["CoT"]
	m.Latency.P95 = b.Methods["CoT"].Latency.P95 * 2
	cur.Methods["CoT"] = m
	rep := Diff(b, cur, DefaultThresholds())
	if rep.OK() || !findKinds(rep)["CoT/p95-inflation"] {
		t.Fatalf("gate missed a 2x p95 inflation: %s", rep.Format())
	}
	// +20% under a 1.25x gate passes.
	m.Latency.P95 = b.Methods["CoT"].Latency.P95 * 1.2
	cur.Methods["CoT"] = m
	if rep := Diff(b, cur, DefaultThresholds()); !rep.OK() {
		t.Fatalf("1.2x p95 should pass a 1.25x gate: %s", rep.Format())
	}
}

func TestDiffTripsOnTokenInflation(t *testing.T) {
	b := baselineArtifact()
	cur := baselineArtifact()
	m := cur.Methods["Ours"]
	m.PromptTokens = int(float64(m.PromptTokens) * 1.5)
	cur.Methods["Ours"] = m
	rep := Diff(b, cur, DefaultThresholds())
	if rep.OK() || !findKinds(rep)["Ours/token-inflation"] {
		t.Fatalf("gate missed a 1.4x token inflation: %s", rep.Format())
	}
}

func TestDiffTripsOnNewErrorsAndMissingMethod(t *testing.T) {
	b := baselineArtifact()

	cur := baselineArtifact()
	m := cur.Methods["CoT"]
	m.Errors = 2
	m.ErrorsByClass = map[string]int{failure.Upstream.String(): 2}
	cur.Methods["CoT"] = m
	rep := Diff(b, cur, DefaultThresholds())
	if rep.OK() || !findKinds(rep)["CoT/new-errors"] {
		t.Fatalf("gate missed new errors: %s", rep.Format())
	}

	cur = baselineArtifact()
	delete(cur.Methods, "Ours")
	rep = Diff(b, cur, DefaultThresholds())
	if rep.OK() || !findKinds(rep)["Ours/method-missing"] {
		t.Fatalf("gate missed a vanished method: %s", rep.Format())
	}
}

func TestDiffCellCountChangeIsFatal(t *testing.T) {
	b := baselineArtifact()
	cur := baselineArtifact()
	m := cur.Methods["Ours"]
	m.N = 5
	cur.Methods["Ours"] = m
	rep := Diff(b, cur, DefaultThresholds())
	if rep.OK() || !findKinds(rep)["Ours/cells-changed"] {
		t.Fatalf("gate missed a cell-count change: %s", rep.Format())
	}
}

func TestDiffNewMethodIsInformational(t *testing.T) {
	b := baselineArtifact()
	cur := baselineArtifact()
	cur.Methods["RAG"] = MethodReport{N: 6, Accuracy: 40}
	rep := Diff(b, cur, DefaultThresholds())
	if !rep.OK() {
		t.Fatalf("a new method must not fail the gate: %s", rep.Format())
	}
	if !findKinds(rep)["RAG/method-added"] {
		t.Fatalf("new method not reported: %s", rep.Format())
	}
	if !strings.Contains(rep.Format(), "PASS") {
		t.Errorf("format verdict: %q", rep.Format())
	}
}
