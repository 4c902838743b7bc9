// Package examples_test pins the runnable examples' output: each one is
// built, run, and its stdout compared byte for byte with
// testdata/<name>.golden. Everything an example prints is deterministic
// (seeded world, simulated models), so a change that moves any answer,
// score or trace artefact they show fails here.
//
// durable is left out: it writes under a fixed path in the system temp
// directory. To regenerate a golden after an intended change:
//
//	go run ./examples/<name> > examples/testdata/<name>.golden
package examples_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var examples = []string{"quickstart", "customllm", "ablation", "openended", "multisource"}

func TestExamplesMatchGoldens(t *testing.T) {
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, name := range examples {
		args = append(args, "./"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range examples {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.Bytes())
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("stdout differs from testdata/%s.golden\n--- got\n%s--- want\n%s", name, got, want)
			}
		})
	}
}
