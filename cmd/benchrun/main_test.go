package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestOutOnlyWithRecall: -out beside any experiment but recall is a usage
// error, not a silently ignored flag.
func TestOutOnlyWithRecall(t *testing.T) {
	for _, tc := range []struct {
		experiment, out string
		ok              bool
	}{
		{"recall", "/tmp/BENCH_recall.json", true},
		{"recall", "", true},
		{"table2", "", true},
		{"table2", "/tmp/BENCH.json", false},
		{"all", "/tmp/BENCH.json", false},
	} {
		if err := checkOut(tc.experiment, tc.out); (err == nil) != tc.ok {
			t.Errorf("checkOut(%q, %q) = %v, want ok=%v", tc.experiment, tc.out, err, tc.ok)
		}
	}
}

// quickEnv builds the environment `benchrun -quick` runs on.
func quickEnv(t *testing.T) *bench.Env {
	t.Helper()
	cfg := bench.QuickEnvConfig()
	cfg.WorldSeed = 42 // benchrun's -seed default
	env, err := bench.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// table2Golden holds the cells `benchrun -experiment table2 -quick -csv`
// writes, without the elapsed_ms timing column, header first and the
// cells sorted. Regenerate it, when a change means to move a score, with
//
//	go run ./cmd/benchrun -experiment table2 -quick -csv /tmp/t2.csv
//	(head -1 /tmp/t2.csv; tail -n +2 /tmp/t2.csv | LC_ALL=C sort) | cut -d, -f1-6 > testdata/baselines/table2-quick.csv
const table2Golden = "../../testdata/baselines/table2-quick.csv"

// cellLines renders a CSV of Table II cells in the golden's form: every
// column but elapsed_ms, header first, the cells sorted.
func cellLines(t *testing.T, data []byte) []string {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, rec := range recs {
		lines = append(lines, strings.Join(rec[:min(len(rec), 6)], ","))
	}
	if len(lines) > 0 {
		slices.Sort(lines[1:])
	}
	return lines
}

// diffCells describes the first line where got and want differ, or
// returns "" when they are equal.
func diffCells(got, want []string) string {
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g, w)
		}
	}
	return ""
}

// TestTable2QuickMatchesGolden gates the paper's table: every cell of the
// -quick Table II (and its scenario-pack cells, which -csv also writes)
// — method, model, dataset, KG source, score and question count — equals
// the committed golden. Scores are deterministic, so any difference is a
// change in what the methods answer. The test then shows its comparison
// can fail: the golden with one score nudged is reported.
func TestTable2QuickMatchesGolden(t *testing.T) {
	env := quickEnv(t)
	report, err := collectTable2Report(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := cellLines(t, buf.Bytes())
	data, err := os.ReadFile(table2Golden)
	if err != nil {
		t.Fatal(err)
	}
	want := cellLines(t, data)
	if len(want) < 2 {
		t.Fatalf("%s holds no cells", table2Golden)
	}
	if d := diffCells(got, want); d != "" {
		t.Fatalf("Table II (-quick) differs from %s: %s", table2Golden, d)
	}

	nudged := slices.Clone(want)
	f := strings.Split(nudged[len(nudged)/2], ",")
	score, err := strconv.ParseFloat(f[4], 64)
	if err != nil {
		t.Fatal(err)
	}
	f[4] = strconv.FormatFloat(score+0.01, 'f', 2, 64)
	nudged[len(nudged)/2] = strings.Join(f, ",")
	if d := diffCells(got, nudged); d == "" {
		t.Fatal("a nudged golden score went unreported")
	}
}

// tablesGolden holds what the Fig. 2, Table III, Table IV and Table V
// printers write for `benchrun -quick`, in that order, without
// benchrun's environment header and the blank line after each
// experiment (timing lines go to stderr). Regenerate it, when a change
// means to move a figure, with
//
//	for e in fig2 table3 table4 table5; do go run ./cmd/benchrun -experiment $e -quick 2>/dev/null | sed '1,/^$/d; $d'; done > testdata/baselines/tables-quick.txt
const tablesGolden = "../../testdata/baselines/tables-quick.txt"

// TestTablesQuickMatchesGolden gates Fig. 2 and Tables III–V the way
// TestTable2QuickMatchesGolden gates Table II: the printers' -quick output
// equals the committed golden line for line. Fig. 2's Cypher row and the
// tables' "w/ Gp" rows decode the model's Cypher, so a change to the
// decode path that moves a pseudo-graph shows here. The test then shows
// its comparison can fail: the golden with Fig. 2's Cypher validity
// nudged is reported.
func TestTablesQuickMatchesGolden(t *testing.T) {
	env := quickEnv(t)
	ctx := context.Background()
	var buf bytes.Buffer
	if _, err := bench.Fig2(ctx, env, &buf); err != nil {
		t.Fatal(err)
	}
	for _, table := range []func(context.Context, *bench.Env, io.Writer) error{bench.Table3, bench.Table4, bench.Table5} {
		if err := table(ctx, env, &buf); err != nil {
			t.Fatal(err)
		}
	}
	got := strings.Split(buf.String(), "\n")
	data, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(data), "\n")
	if d := diffCells(got, want); d != "" {
		t.Fatalf("Fig. 2 / Tables III–V (-quick) differ from %s: %s", tablesGolden, d)
	}

	nudged := slices.Clone(want)
	i := slices.IndexFunc(nudged, func(l string) bool { return strings.HasPrefix(l, "Cypher-mediated generation:") })
	if i < 0 {
		t.Fatalf("%s has no Fig. 2 Cypher row", tablesGolden)
	}
	loc := regexp.MustCompile(`\d+\.\d`).FindStringIndex(nudged[i])
	pct, err := strconv.ParseFloat(nudged[i][loc[0]:loc[1]], 64)
	if err != nil {
		t.Fatal(err)
	}
	nudged[i] = nudged[i][:loc[0]] + strconv.FormatFloat(pct+0.1, 'f', 1, 64) + nudged[i][loc[1]:]
	if d := diffCells(got, nudged); d == "" {
		t.Fatal("a nudged Fig. 2 validity went unreported")
	}
}
