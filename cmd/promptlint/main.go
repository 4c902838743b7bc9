// Command promptlint validates prompt directories — the CI gate that
// keeps the prompt registry's load-time guarantees ahead of runtime.
//
//	promptlint [dir ...]
//
// Each argument is a directory of *.prompt files (not searched
// recursively); with no arguments it lints internal/prompts/defaults.
// Each directory is loaded exactly as pgakvd's -prompt-dir overlay is,
// by prompts.Registry.LoadDir over the embedded defaults, so the linter
// refuses exactly what the server would refuse: a file name that is not
// <name>.v<version>.prompt with a canonical version, a name with no
// prompt slot, a frontmatter key other than description and candidate,
// and a body whose placeholders, markers, task classification or
// extractor probe do not fit its slot.
//
// Exit status 0 when every directory loads, 1 when any fails — CI runs
// this over the committed defaults and also proves the failure path by
// doctoring copies and asserting a nonzero exit.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/prompts"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints each directory and returns the process exit status.
func run(dirs []string, stdout, stderr io.Writer) int {
	if len(dirs) == 0 {
		dirs = []string{filepath.Join("internal", "prompts", "defaults")}
	}
	status := 0
	for _, dir := range dirs {
		reg := prompts.NewRegistry()
		if err := reg.LoadDir(dir); err != nil {
			fmt.Fprintln(stderr, "promptlint:", err)
			status = 1
			continue
		}
		n := 0
		for _, in := range reg.List() {
			if in.Source != "embedded" {
				fmt.Fprintf(stdout, "ok %s (%s@%d task=%s)\n", in.Source, in.Name, in.Version, in.Task)
				n++
			}
		}
		if n == 0 {
			fmt.Fprintln(stderr, "promptlint: no .prompt files in", dir)
			status = 1
		}
	}
	return status
}
