package bench

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/racedetect"
)

// failuresGolden holds Failures' output on the paper-scale environment
// at world seed 42: the §IV-E attribution of every Ours answer on the
// paper trio, both models. After reviewing the difference
// TestFailuresMatchGolden reports, regenerate it from the repository
// root with
//
//	go run ./cmd/benchrun -experiment failures 2>/dev/null |
//		sed -n '/^Failure attribution/,/^§IV-E/p' >testdata/baselines/failures-full.txt
const failuresGolden = "../../testdata/baselines/failures-full.txt"

// TestFailuresMatchGolden gates the §IV-E error analysis at paper scale:
// every (dataset, model) row's counts and the claim's verdict match the
// committed golden. The test then shows its comparison can fail: the
// golden with one count nudged, and with the verdict flipped, is reported.
func TestFailuresMatchGolden(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("paper-scale evaluation; too slow under -race")
	}
	env, err := NewEnv(DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var buf bytes.Buffer
	if err := Failures(context.Background(), env, &buf); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	data, err := os.ReadFile(failuresGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if d := diffLines(got, want); d != "" {
		path := filepath.Join(os.TempDir(), "failures-full.txt")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Log(err)
		}
		t.Fatalf("failure attribution differs from %s: %s (current output in %s)", failuresGolden, d, path)
	}

	// Nudge the last count of the first row.
	nudged := slices.Clone(want)
	fields := strings.Fields(nudged[2])
	n, err := strconv.Atoi(fields[len(fields)-1])
	if err != nil {
		t.Fatalf("%s row %q does not end in a count", failuresGolden, nudged[2])
	}
	nudged[2] = strings.TrimSuffix(nudged[2], fields[len(fields)-1]) + strconv.Itoa(n+1)
	if d := diffLines(got, nudged); d == "" {
		t.Error("a nudged golden count went unreported")
	}

	flipped := slices.Clone(want)
	last := len(flipped) - 1
	flipped[last] = strings.NewReplacer(": flipped", ": held", ": held", ": flipped").Replace(flipped[last])
	if d := diffLines(got, flipped); d == "" {
		t.Error("a flipped golden verdict went unreported")
	}
}
