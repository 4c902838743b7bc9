package main

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// metricsKeys returns every key a /v1/metrics body can hold, as dotted
// JSON paths: a slice of objects adds "[]" to its field's name, and a map
// of objects — the per-source sections — one "<src>" segment. Fields the
// body omits when empty (the ANN and replication sections) are keys too.
// Each key is marked true when it is a leaf.
func metricsKeys() map[string]bool {
	keys := map[string]bool{}
	var walk func(path string, t reflect.Type)
	walk = func(path string, t reflect.Type) {
		for t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		switch {
		case t.Kind() == reflect.Struct:
			keys[path] = false
			for i := range t.NumField() {
				f := t.Field(i)
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				if !f.IsExported() || name == "-" {
					continue
				}
				if name == "" {
					name = f.Name
				}
				walk(strings.TrimPrefix(path+"."+name, "."), f.Type)
			}
		case t.Kind() == reflect.Slice && isObject(t.Elem()):
			walk(path+"[]", t.Elem())
		case t.Kind() == reflect.Map && isObject(t.Elem()):
			keys[path] = false
			walk(path+".<src>", t.Elem())
		default:
			keys[path] = true
		}
	}
	walk("", reflect.TypeFor[metricsResponse]())
	delete(keys, "")
	return keys
}

func isObject(t reflect.Type) bool {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Kind() == reflect.Struct
}

// glossaryKeys returns the keys the rows of docs/operations.md's
// "/v1/metrics field glossary" name, one list per row, in order. A row's
// first cell names its keys in backquotes: the first in full, or as
// "...rest", the previous row's key up to rest's first segment followed
// by rest; each further one, a sibling of the first.
func glossaryKeys(doc string) [][]string {
	_, section, _ := strings.Cut(doc, "\n## /v1/metrics field glossary\n")
	section, _, _ = strings.Cut(section, "\n## ")
	quoted := regexp.MustCompile("`([^`]+)`")
	var rows [][]string
	prev := ""
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		var row []string
		for _, m := range quoted.FindAllStringSubmatch(cells[1], -1) {
			key := m[1]
			switch {
			case len(row) > 0:
				first := row[0]
				key = first[:strings.LastIndex(first, ".")+1] + key
			case strings.HasPrefix(key, "..."):
				rest := key[3:]
				seg, _, _ := strings.Cut(rest, ".")
				at := strings.Index(prev, "."+seg+".")
				if at < 0 {
					key = rest
				} else {
					key = prev[:at+1] + rest
				}
			}
			row = append(row, key)
		}
		if len(row) > 0 {
			rows = append(rows, row)
			prev = row[0]
		}
	}
	return rows
}

// glossaryDrift lists what keeps the glossary in doc from naming exactly
// the keys of /v1/metrics: a leaf key that no row names, itself or an
// object above it; a row key the body cannot hold; a key two rows name.
func glossaryDrift(doc string) []string {
	keys := metricsKeys()
	named := map[string]bool{}
	var problems []string
	for _, row := range glossaryKeys(doc) {
		for _, key := range row {
			if named[key] {
				problems = append(problems, key+": two rows")
			}
			named[key] = true
			if _, ok := keys[key]; !ok {
				problems = append(problems, key+": row names no key")
			}
		}
	}
	for key, leaf := range keys {
		if !leaf {
			continue
		}
		covered := false
		for k := key; k != "" && !covered; {
			covered = named[k]
			k = k[:max(strings.LastIndexAny(k, ".["), 0)]
		}
		if !covered {
			problems = append(problems, key+": no row")
		}
	}
	slices.Sort(problems)
	return problems
}

// TestMetricsGlossaryMatchesMetrics: docs/operations.md's /v1/metrics
// glossary has a row for every key the body can hold and names no other.
// It also proves the check trips on a doctored copy of the table.
func TestMetricsGlossaryMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../docs/operations.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	if problems := glossaryDrift(doc); len(problems) > 0 {
		t.Errorf("docs/operations.md /v1/metrics glossary drifted from the body:\n%s", strings.Join(problems, "\n"))
	}
	doctored := regexp.MustCompile("(?m)^\\| `substrates.<src>.shards` \\|.*\n").ReplaceAllString(doc, "")
	doctored = strings.Replace(doctored, "| `...durability.fsync` |", "| `...durability.segments` | gone |\n| `...durability.fsync` |", 1)
	doctored = strings.Replace(doctored, "| `singleflight` |", "| `singleflight` | twice |\n| `singleflight` |", 1)
	want := []string{
		"singleflight: two rows",
		"substrates.<src>.durability.segments: row names no key",
		"substrates.<src>.shards: no row",
	}
	if got := glossaryDrift(doctored); !slices.Equal(got, want) {
		t.Errorf("doctored table: got problems\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
