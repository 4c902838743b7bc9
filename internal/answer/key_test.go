package answer

import (
	"sort"
	"strings"
	"testing"
)

// referenceQueryKey and referenceNormalizeText are QueryKey and its text
// normalisation as they were before keys were built in one pass: split on
// white space, join, lower, then strip control characters, each step its
// own string. Every key must stay byte-identical to theirs, since the
// benchmark's pool and every cache entry are addressed by these bytes.
func referenceQueryKey(method, model string, q Query) string {
	var b strings.Builder
	b.WriteString(strings.ToLower(strings.TrimSpace(method)))
	b.WriteByte(0)
	b.WriteString(strings.ToLower(strings.TrimSpace(model)))
	b.WriteByte(0)
	b.WriteString(referenceNormalizeText(q.Text))
	b.WriteByte(0)
	if q.Open {
		b.WriteByte('o')
	}
	b.WriteByte(0)
	if len(q.Anchors) > 0 {
		anchors := make([]string, 0, len(q.Anchors))
		for _, a := range q.Anchors {
			if a = referenceNormalizeText(a); a != "" {
				anchors = append(anchors, a)
			}
		}
		sort.Strings(anchors)
		b.WriteString(strings.Join(anchors, "\x01"))
	}
	b.WriteByte(0)
	writeOverrides(&b, q.Overrides)
	if len(q.PromptVersions) > 0 {
		b.WriteByte(0)
		names := make([]string, 0, len(q.PromptVersions))
		for name := range q.PromptVersions {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			b.WriteString(referenceNormalizeText(name))
			b.WriteByte('@')
			b.WriteString(referenceNormalizeText(q.PromptVersions[name]))
			b.WriteByte(';')
		}
	}
	return b.String()
}

func referenceNormalizeText(s string) string {
	s = strings.ToLower(strings.Join(strings.Fields(s), " "))
	return strings.Map(func(r rune) rune {
		if r < 0x20 || r == 0x7f {
			return -1
		}
		return r
	}, s)
}

var keyTexts = []string{
	"",
	" ",
	"Where was Ada Lovelace born?",
	"  Where\twas\n\nADA   born?  ",
	"a \x01 b",
	"\x01",
	"\x00a\x7fb\x1f",
	"a\v\fb\rc",
	"tab\t\tend\t",
	"<html> & \"quotes\" \\",
	"Zürich ÉCOLE",
	"naïve space\u0085nel",
	"bad utf8 \xff\xfe X",
	"İstanbul",
}

func TestQueryKeyMatchesReference(t *testing.T) {
	budget := 7
	for _, text := range keyTexts {
		for _, q := range []Query{
			{Text: text},
			{Text: text, Open: true, Anchors: []string{text, "B", " a "}},
			{Text: text, PromptVersions: map[string]string{text: text, "Answer-Graph": " 2 "}},
			{Text: text, Overrides: Overrides{TokenBudget: &budget}},
		} {
			if got, want := QueryKey(" OURS ", "GPT-4", q), referenceQueryKey(" OURS ", "GPT-4", q); got != want {
				t.Errorf("QueryKey(%+v) = %q, want %q", q, got, want)
			}
		}
		var b strings.Builder
		writeNormalized(&b, text)
		if got, want := b.String(), referenceNormalizeText(text); got != want {
			t.Errorf("writeNormalized(%q) = %q, want %q", text, got, want)
		}
	}
	if got, want := PrefixedQueryKey("ns\x02", "ours", "m", Query{Text: "Q"}), "ns\x02"+QueryKey("ours", "m", Query{Text: "Q"}); got != want {
		t.Errorf("PrefixedQueryKey = %q, want %q", got, want)
	}
}

// FuzzQueryKey holds the one-pass key to the reference on arbitrary text,
// anchors and prompt pins:
//
//	go test -run='^$' -fuzz='^FuzzQueryKey$' -fuzztime=30s ./internal/answer
func FuzzQueryKey(f *testing.F) {
	for _, text := range keyTexts {
		f.Add(text, "Anchor", "answer-graph", "2", false)
	}
	f.Fuzz(func(t *testing.T, text, anchor, pinName, pinVersion string, open bool) {
		var b strings.Builder
		writeNormalized(&b, text)
		if got, want := b.String(), referenceNormalizeText(text); got != want {
			t.Fatalf("writeNormalized(%q) = %q, want %q", text, got, want)
		}
		q := Query{Text: text, Open: open, Anchors: []string{anchor}, PromptVersions: map[string]string{pinName: pinVersion}}
		if got, want := QueryKey(text, anchor, q), referenceQueryKey(text, anchor, q); got != want {
			t.Fatalf("QueryKey(%+v) = %q, want %q", q, got, want)
		}
	})
}
