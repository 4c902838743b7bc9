package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prompts"
)

const defaults = "../../internal/prompts/defaults"

// TestLintRefusesWhatLoadRefuses: the linter's verdict on a directory is
// LoadDir's, message included. The IO prompt saved as
// answer-graph.v3.prompt is refused, as its slot takes other vars.
func TestLintRefusesWhatLoadRefuses(t *testing.T) {
	io, err := os.ReadFile(filepath.Join(defaults, "io.v1.prompt"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		files map[string][]byte
		ok    bool
	}{
		{"io-as-io", map[string][]byte{"io.v3.prompt": io}, true},
		{"io-as-answer-graph", map[string][]byte{"answer-graph.v3.prompt": io}, false},
		{"one-version-twice", map[string][]byte{"io.v9.prompt": io, "io.v09.prompt": io}, false},
		{"name-without-slot", map[string][]byte{"chat.v1.prompt": io}, false},
		{"removed-key", map[string][]byte{"io.v3.prompt": []byte(strings.Replace(string(io), "---\n", "---\ntemperature: 0\n", 1))}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for file, data := range c.files {
				if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var stdout, stderr bytes.Buffer
			status := run([]string{dir}, &stdout, &stderr)
			loadErr := prompts.NewRegistry().LoadDir(dir)
			if (status == 0) != c.ok || (loadErr == nil) != c.ok {
				t.Fatalf("lint status %d (%s), LoadDir %v; want both to accept=%v", status, stderr.String(), loadErr, c.ok)
			}
			if loadErr != nil && !strings.Contains(stderr.String(), loadErr.Error()) {
				t.Fatalf("lint said %q, LoadDir %q", stderr.String(), loadErr)
			}
		})
	}
}

// TestLintCommittedDefaults: the embedded defaults lint clean, one line
// per file.
func TestLintCommittedDefaults(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := run([]string{defaults}, &stdout, &stderr); status != 0 {
		t.Fatalf("status %d: %s", status, stderr.String())
	}
	files, err := filepath.Glob(filepath.Join(defaults, "*.prompt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(stdout.String(), "ok "); got != len(files) || got == 0 {
		t.Fatalf("%d ok lines for %d files:\n%s", got, len(files), stdout.String())
	}
}

// TestLintRefusesNothingToLint: a directory with no .prompt files, or a
// path that is not a directory, is an error rather than a clean lint.
func TestLintRefusesNothingToLint(t *testing.T) {
	for _, dir := range []string{t.TempDir(), filepath.Join(defaults, "io.v1.prompt")} {
		var stdout, stderr bytes.Buffer
		if status := run([]string{dir}, &stdout, &stderr); status == 0 {
			t.Fatalf("linting %s passed: %s", dir, stdout.String())
		}
	}
}
