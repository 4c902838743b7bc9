package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/trace"
)

// TestModelFlag: -model goes through node.ResolveModel. An unknown label
// fails before the node is built, and a label in another case selects
// the model it names — neither falls back to GPT-3.5.
func TestModelFlag(t *testing.T) {
	err := run("Where was anyone born?", "io", "wikidata", "gpt5", "", 0, false, true, true, 0)
	if failure.Of(err) != failure.InvalidQuery {
		t.Fatalf("-model gpt5: err = %v, want an invalid-query error", err)
	}

	out := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run("Where was anyone born?", "io", "wikidata", "GPT4", "", 0, false, true, true, 0)
	os.Stdout = stdout
	f.Close()
	if err != nil {
		t.Fatalf("-model GPT4: %v", err)
	}
	line, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.Decode(line)
	if err != nil {
		t.Fatalf("-json output %q: %v", strings.TrimSpace(string(line)), err)
	}
	if rec.Model != node.ModelGPT4 {
		t.Errorf("-model GPT4 answered with %q, want %q", rec.Model, node.ModelGPT4)
	}
}
