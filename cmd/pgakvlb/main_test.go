package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// flagTableDrift compares the "Router flags" table of an operations
// document with the flags pgakvlb registers and returns one problem per
// flag without a row, row without a flag, or default that differs.
// Defaults are compared normalised: `""` is empty, and a duration flag's
// cell is parsed, so `500ms` equals 0.5s.
func flagTableDrift(doc string) []string {
	_, section, _ := strings.Cut(doc, "\n## Router flags (`pgakvlb`)\n")
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]string{}
	var problems []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.SplitN(line, "|", 4)
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`-") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`-")
		if _, dup := rows[name]; dup {
			problems = append(problems, "-"+name+": two rows")
		}
		rows[name] = strings.Trim(strings.TrimSpace(cells[2]), "`")
	}
	flags(&config{}).VisitAll(func(f *flag.Flag) {
		cell, ok := rows[f.Name]
		if !ok {
			problems = append(problems, "-"+f.Name+": no row")
			return
		}
		delete(rows, f.Name)
		if cell == `""` {
			cell = ""
		}
		if def, ok := f.Value.(flag.Getter).Get().(time.Duration); ok {
			if d, err := time.ParseDuration(cell); err == nil && d == def {
				return
			}
		} else if cell == f.DefValue {
			return
		}
		problems = append(problems, fmt.Sprintf("-%s: row says %q, flag defaults to %q", f.Name, cell, f.DefValue))
	})
	for name := range rows {
		problems = append(problems, "-"+name+": row names no flag")
	}
	slices.Sort(problems)
	return problems
}

// TestFlagsReferenceMatchesFlags: docs/operations.md lists every flag
// pgakvlb registers, no other, each with the flag's default. It also
// proves the check trips on a doctored copy of the table.
func TestFlagsReferenceMatchesFlags(t *testing.T) {
	raw, err := os.ReadFile("../../docs/operations.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	if problems := flagTableDrift(doc); len(problems) > 0 {
		t.Errorf("docs/operations.md router flag table drifted from the registered flags:\n%s", strings.Join(problems, "\n"))
	}
	_, section, _ := strings.Cut(doc, "\n## Router flags (`pgakvlb`)\n")
	doctored := strings.Replace(section, "| `-max-lag` | `64` |", "| `-max-lag` | `65` |", 1)
	doctored = strings.Replace(doctored, "| `-replicas` |", "| `-retired` |", 1)
	// Normalisation alone is no drift.
	doctored = strings.Replace(doctored, "| `-probe-interval` | `500ms` |", "| `-probe-interval` | `0.5s` |", 1)
	want := []string{
		`-max-lag: row says "65", flag defaults to "64"`,
		"-replicas: no row",
		"-retired: row names no flag",
	}
	if got := flagTableDrift("\n## Router flags (`pgakvlb`)\n" + doctored); !slices.Equal(got, want) {
		t.Errorf("doctored table: got problems\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestFlagsLandInConfig: every flag sets its field of config.
func TestFlagsLandInConfig(t *testing.T) {
	var c config
	if err := flags(&c).Parse([]string{"-addr", ":1", "-primary", "http://p", "-replicas", "http://a,http://b", "-max-lag", "3", "-probe-interval", "2s"}); err != nil {
		t.Fatal(err)
	}
	want := config{Addr: ":1", Primary: "http://p", Replicas: "http://a,http://b", MaxLag: 3, ProbeInterval: 2 * time.Second}
	if c != want {
		t.Errorf("flags landed as %+v, want %+v", c, want)
	}
}
