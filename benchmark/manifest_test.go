package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCode holds BENCHMARK.json and the code to each other:
// every workload and metric the manifest names is one the code emits, with
// the same unit, direction and bound, and the other way round.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	var gated []*workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(m.Workloads) != len(gated) {
		t.Errorf("manifest has %d workloads, code gates %d", len(m.Workloads), len(gated))
	}
	for i, mw := range m.Workloads {
		if !nameRE.MatchString(mw.Name) {
			t.Errorf("workload name %q is not [A-Za-z0-9_.-]+", mw.Name)
		}
		if i < len(gated) && (mw.Name != gated[i].Name || mw.Why != gated[i].Why) {
			t.Errorf("workload %d: manifest says %q (%q), code says %q (%q)", i, mw.Name, mw.Why, gated[i].Name, gated[i].Why)
		}
		if len(mw.Why) > 200 || strings.Contains(mw.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", mw.Name, len(mw.Why))
		}
	}
	seen := map[string]bool{}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, code emits %d", kind, len(got), len(want))
		}
		byName := map[string]metricDef{}
		for _, d := range want {
			byName[d.Name] = d
		}
		for _, g := range got {
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %q (unit %q): name or unit outside the allowed characters", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("%s %q: name used twice", kind, g.Name)
			}
			seen[g.Name] = true
			d, ok := byName[g.Name]
			if !ok {
				t.Errorf("%s %q is in the manifest but the code does not emit it", kind, g.Name)
				continue
			}
			delete(byName, g.Name)
			if g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %q: manifest says %s/%s, code says %s/%s", kind, g.Name, g.Unit, g.Better, d.Unit, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound):
				t.Errorf("%s %q: manifest bound %v, code bound %v", kind, g.Name, g.Bound, d.Bound)
			case bounded && (*g.Bound < 0 || *g.Bound > 0.25):
				t.Errorf("%s %q: bound %v outside [0, 0.25]", kind, g.Name, *g.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, g.Name)
			}
		}
		for name := range byName {
			t.Errorf("%s %q is emitted by the code but missing from the manifest", kind, name)
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	for _, w := range workloads {
		if seen[w.Name] {
			t.Errorf("%q names both a workload and a metric", w.Name)
		}
	}

	hasSetup := false
	for _, g := range m.EndToEnd {
		if g.Name == "setup_s" {
			hasSetup = g.Unit == "s" && g.Better == "lower"
			for _, o := range m.EndToEnd {
				if o.Bound != nil && g.Bound != nil && *o.Bound > *g.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, *o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the manifest's limits of 128 and 16", len(m.PerLayer), len(m.EndToEnd))
	}
}

// TestReadmeExplainsEveryName keeps the glossary complete.
func TestReadmeExplainsEveryName(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, w := range workloads {
		if !strings.Contains(doc, "`"+w.Name+"`") {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !strings.Contains(doc, "`"+d.Name+"`") {
				t.Errorf("README.md does not explain metric %s", d.Name)
			}
		}
	}
}

// TestEveryDeclaredMetricHasAProducer guards against a name that is
// declared (and so always printed, as 0) but that no code path assigns.
func TestEveryDeclaredMetricHasAProducer(t *testing.T) {
	var src strings.Builder
	for _, f := range []string{"run.go", "layers.go"} {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(raw)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !strings.Contains(src.String(), `"`+d.Name+`"`) {
				t.Errorf("metric %s is declared but nothing assigns it", d.Name)
			}
		}
	}
}
