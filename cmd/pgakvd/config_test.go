package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring; empty = valid
	}{
		{"defaults", func(*Config) {}, ""},
		{"durable replica", func(c *Config) { c.Substrate.Durability.Dir = "/d"; c.ReplicaOf = "http://primary:8080" }, ""},
		{"fsync always", func(c *Config) { c.Fsync = "always" }, ""},
		{"zeros mean off", func(c *Config) {
			c.Timeout = 0
			c.Cache.Size = 0
			c.LLMConcurrency = 0
			c.Substrate.CompactThreshold = 0
		}, ""},
		{"replica without data dir", func(c *Config) { c.ReplicaOf = "http://primary:8080" }, "-replica-of requires -data-dir"},
		{"unknown fsync", func(c *Config) { c.Fsync = "sometimes" }, "sometimes"},
		{"negative workers", func(c *Config) { c.Workers = -4 }, "-workers"},
		{"negative cache size", func(c *Config) { c.Cache.Size = -1 }, "-cache-size"},
		{"negative shard size", func(c *Config) { c.Substrate.ShardSize = -1 }, "-shard-size"},
		{"negative compact threshold", func(c *Config) { c.Substrate.CompactThreshold = -1 }, "-compact-threshold"},
		{"negative llm concurrency", func(c *Config) { c.LLMConcurrency = -1 }, "-llm-concurrency"},
		{"negative burst", func(c *Config) { c.Admission.Limiter.Burst = -1 }, "-burst"},
		{"negative max-inflight", func(c *Config) { c.Admission.MaxInFlight = -1 }, "-max-inflight"},
		{"negative max-queue", func(c *Config) { c.Admission.MaxQueue = -1 }, "-max-queue"},
		{"negative ann-ef", func(c *Config) { c.Substrate.ANN.EfSearch = -8 }, "-ann-ef"},
		{"debug listener", func(c *Config) { c.DebugAddr = "127.0.0.1:6060" }, ""},
		{"debug on the serving port", func(c *Config) { c.DebugAddr = c.Addr }, "-debug-addr"},
	}
	for _, tc := range cases {
		cfg := testConfig(time.Minute)
		tc.mutate(&cfg)
		err := cfg.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestFlagsLandInConfig: the defaults are the documented ones and a flag
// reaches the layer config it sizes.
func TestFlagsLandInConfig(t *testing.T) {
	def, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if def.Addr != ":8080" || def.Seed != 42 || def.Timeout != 60*time.Second || def.Cache.Size != 4096 ||
		def.Substrate.CompactThreshold != 2048 || def.LLMConcurrency != 32 || def.Fsync != "interval" ||
		def.Admission.MaxQueue != 32 || def.MaxBody != 8<<20 {
		t.Errorf("defaults drifted from docs/operations.md: %+v", def)
	}
	got, err := parseFlags([]string{"-quick", "-cache-size", "0", "-data-dir", "/d", "-replica-of", "http://p", "-ann", "-max-inflight", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Quick || got.Cache.Size != 0 || got.Substrate.Durability.Dir != "/d" || got.ReplicaOf != "http://p" ||
		!got.Substrate.ANN.Enabled || got.Admission.MaxInFlight != 3 {
		t.Errorf("flags did not land: %+v", got)
	}
	if nc := got.node(nil, nil); !nc.Substrate.Replica || nc.Substrate.Durability.Dir != "/d" || nc.Cache.Size != 0 {
		t.Errorf("node config does not follow the flags: %+v", nc.Substrate)
	}
}

// flagTableDrift compares the "Flags reference" table of an operations
// document with the flags pgakvd registers and returns one problem per
// flag without a row, row without a flag, or default that differs.
// Defaults are compared normalised: off/on are false/true, `""` is empty,
// and a duration flag's cell is parsed, so `60s` equals 1m0s.
func flagTableDrift(doc string) []string {
	_, section, _ := strings.Cut(doc, "\n## Flags reference\n")
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
	fs := flags(&Config{})
	fs.VisitAll(func(f *flag.Flag) {
		cell, ok := rows[f.Name]
		if !ok {
			problems = append(problems, "-"+f.Name+": no row")
			return
		}
		delete(rows, f.Name)
		switch cell {
		case "off":
			cell = "false"
		case "on":
			cell = "true"
		case `""`:
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
// parseFlags registers, no other, each with the flag's default. It also
// proves the check trips on a doctored copy of the table.
func TestFlagsReferenceMatchesFlags(t *testing.T) {
	raw, err := os.ReadFile("../../docs/operations.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	if problems := flagTableDrift(doc); len(problems) > 0 {
		t.Errorf("docs/operations.md flag table drifted from parseFlags:\n%s", strings.Join(problems, "\n"))
	}
	doctored := strings.Replace(doc, "| `-workers` | `8` |", "| `-workers` | `9` |", 1)
	doctored = regexp.MustCompile("(?m)^\\| `-burst` \\|.*\n").ReplaceAllString(doctored, "")
	doctored = strings.Replace(doctored, "| `-addr` |", "| `-retired` | off | gone |\n| `-addr` |", 1)
	// Normalisation alone is no drift.
	doctored = strings.Replace(doctored, "| `-timeout` | `60s` |", "| `-timeout` | `1m0s` |", 1)
	want := []string{
		"-burst: no row",
		"-retired: row names no flag",
		`-workers: row says "9", flag defaults to "8"`,
	}
	if got := flagTableDrift(doctored); !slices.Equal(got, want) {
		t.Errorf("doctored table: got problems\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
