package failure

import (
	"context"
	"errors"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

type selfClassed struct{}

func (selfClassed) Error() string { return "self-classed" }
func (selfClassed) Class() Class  { return Budget }

// TestOf drives the classifier through its order: nil, the context's
// two errors (a deadline before a cancellation), a Classer anywhere in
// the chain, and the Upstream default.
func TestOf(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", err)) }
	for _, tc := range []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, None},
		{"canceled", wrap(context.Canceled), Canceled},
		{"deadline", wrap(context.DeadlineExceeded), Deadline},
		{"deadline and canceled", errors.Join(context.Canceled, wrap(context.DeadlineExceeded)), Deadline},
		{"classer", wrap(selfClassed{}), Budget},
		{"wrapped", wrap(Wrap(Storage, errors.New("disk"))), Storage},
		{"context outranks a classer", Wrap(Storage, wrap(context.Canceled)), Canceled},
		{"plain", errors.New("boom"), Upstream},
	} {
		if got := Of(tc.err); got != tc.want {
			t.Errorf("%s: Of(%v) = %q, want %q", tc.name, tc.err, got, tc.want)
		}
	}
	if err := Wrap(Conflict, errors.New("busy")); err.Error() != "busy" {
		t.Errorf("Wrap changed the message: %q", err)
	}
}

// TestTable: every class has a distinct wire name that round-trips
// through the text codec, a status that is a redirect or an error, and
// a Retry-After only where a retry may succeed; no unknown name decodes.
func TestTable(t *testing.T) {
	seen := map[string]bool{}
	for c := None + 1; c < NumClasses; c++ {
		name := c.String()
		if name == "" || seen[name] {
			t.Errorf("class %d: name %q empty or repeated", c, name)
		}
		seen[name] = true
		if c.Status() < 300 || c.Status() > 599 {
			t.Errorf("%s: status %d is neither a redirect nor an error", c, c.Status())
		}
		if c.RetryAfter() && !table[c].retryable {
			t.Errorf("%s: Retry-After on a class that is not retryable", c)
		}
		text, _ := c.MarshalText()
		var back Class
		if err := back.UnmarshalText(text); err != nil || back != c {
			t.Errorf("%s: text round trip gave %q, %v", c, back, err)
		}
	}
	var c Class
	if err := c.UnmarshalText([]byte("other")); err == nil {
		t.Error(`"other" decoded as a class`)
	}
}

// docRows parses the table under docs/operations.md's "Error classes"
// heading: per row, the class in backquotes and its status, retryable
// and Retry-After cells.
func docRows(doc string) [][4]string {
	_, section, _ := strings.Cut(doc, "\n## Error classes\n")
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile("^\\| `([^`]+)` \\| ([^|]+) \\| ([^|]+) \\| ([^|]+) \\|")
	var rows [][4]string
	for _, line := range strings.Split(section, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			rows = append(rows, [4]string{m[1], strings.TrimSpace(m[2]), strings.TrimSpace(m[3]), strings.TrimSpace(m[4])})
		}
	}
	return rows
}

// docDrift lists what keeps the doc's table from stating the type's: a
// class with no row, a row naming no class or a class twice, and a cell
// that disagrees with the class's status, retry or Retry-After rule.
func docDrift(doc string) []string {
	yes := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	var problems []string
	rowed := map[Class]bool{}
	for _, r := range docRows(doc) {
		var c Class
		if err := c.UnmarshalText([]byte(r[0])); err != nil || c == None {
			problems = append(problems, r[0]+": row names no class")
			continue
		}
		if rowed[c] {
			problems = append(problems, r[0]+": two rows")
		}
		rowed[c] = true
		if want := strconv.Itoa(c.Status()); r[1] != want {
			problems = append(problems, r[0]+": status "+r[1]+", want "+want)
		}
		if want := yes(table[c].retryable); r[2] != want {
			problems = append(problems, r[0]+": retryable "+r[2]+", want "+want)
		}
		if want := yes(c.RetryAfter()); r[3] != want {
			problems = append(problems, r[0]+": Retry-After "+r[3]+", want "+want)
		}
	}
	for c := None + 1; c < NumClasses; c++ {
		if !rowed[c] {
			problems = append(problems, c.String()+": no row")
		}
	}
	slices.Sort(problems)
	return problems
}

// TestDocTableMatchesClasses: docs/operations.md's error-class table has
// one row per class, stating its status, retry rule and Retry-After rule
// as the table here does. It also proves the check trips on a doctored
// copy of the doc.
func TestDocTableMatchesClasses(t *testing.T) {
	raw, err := os.ReadFile("../../docs/operations.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	if problems := docDrift(doc); len(problems) > 0 {
		t.Errorf("docs/operations.md error-class table drifted from the type:\n%s", strings.Join(problems, "\n"))
	}
	doctored := regexp.MustCompile("(?m)^\\| `conflict` \\|.*\n").ReplaceAllString(doc, "")
	doctored = strings.Replace(doctored, "| `storage` | 500 | yes |", "| `storage` | 503 | yes |", 1)
	doctored = strings.Replace(doctored, "| `shed` | 429 | yes | yes |", "| `shed` | 429 | yes | no |", 1)
	doctored = strings.Replace(doctored, "| `budget` |", "| `other` | 500 | yes | no | catch-all |\n| `budget` |", 1)
	want := []string{
		"conflict: no row",
		"other: row names no class",
		"shed: Retry-After no, want yes",
		"storage: status 503, want 500",
	}
	if got := docDrift(doctored); !slices.Equal(got, want) {
		t.Errorf("doctored table: got problems\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
