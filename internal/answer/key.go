package answer

import (
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// QueryKey returns the canonical identity of a query for caching and
// deduplication layers: two queries with the same key are answered
// identically by the same method and model. Normalisation is deliberately
// conservative — it folds case and whitespace and ignores anchor order,
// but keeps every semantic knob (open flag, overrides) because those
// change the produced answer.
func QueryKey(method, model string, q Query) string {
	return PrefixedQueryKey("", method, model, q)
}

// PrefixedQueryKey returns prefix followed by QueryKey(method, model, q),
// built in one buffer: the serving layers' keys are a namespace plus the
// query's identity.
func PrefixedQueryKey(prefix, method, model string, q Query) string {
	var b strings.Builder
	b.Grow(len(prefix) + len(method) + len(model) + len(q.Text) + 32)
	b.WriteString(prefix)
	writeLower(&b, strings.TrimSpace(method))
	b.WriteByte(0)
	writeLower(&b, strings.TrimSpace(model))
	b.WriteByte(0)
	writeNormalized(&b, q.Text)
	b.WriteByte(0)
	if q.Open {
		b.WriteByte('o')
	}
	b.WriteByte(0)
	if len(q.Anchors) > 0 {
		anchors := make([]string, 0, len(q.Anchors))
		for _, a := range q.Anchors {
			if a = normalizeText(a); a != "" {
				anchors = append(anchors, a)
			}
		}
		sort.Strings(anchors)
		b.WriteString(strings.Join(anchors, "\x01"))
	}
	b.WriteByte(0)
	writeOverrides(&b, q.Overrides)
	if len(q.PromptVersions) > 0 {
		// Prompt-version overrides change the rendered prompts and so the
		// answer; pinned and unpinned queries must never share a cache
		// entry. Sorted for map-order stability.
		b.WriteByte(0)
		names := make([]string, 0, len(q.PromptVersions))
		for name := range q.PromptVersions {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			writeNormalized(&b, name)
			b.WriteByte('@')
			writeNormalized(&b, q.PromptVersions[name])
			b.WriteByte(';')
		}
	}
	return b.String()
}

// writeLower appends strings.ToLower(s) to b, ASCII text without an
// intermediate string.
func writeLower(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			b.WriteString(strings.ToLower(s))
			return
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
}

// writeNormalized appends normalizeText(s) to b. ASCII text is normalised
// in one pass straight into b, with no intermediate strings: a run of
// white space between two fields becomes one space, letters are lowered,
// and other control characters are dropped, each still counting as part
// of its field (so "a \x01 b" keeps both of its spaces, as
// normalizeText's split-then-strip does). Other text goes through
// normalizeText.
func writeNormalized(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			b.WriteString(normalizeText(s))
			return
		}
	}
	inField, space := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || '\t' <= c && c <= '\r' { // strings.Fields' ASCII space
			space = inField
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		inField = true
		switch {
		case c < 0x20 || c == 0x7f:
		case 'A' <= c && c <= 'Z':
			b.WriteByte(c + 'a' - 'A')
		default:
			b.WriteByte(c)
		}
	}
}

// normalizeText lower-cases, collapses all runs of whitespace to a
// single space, and strips remaining control characters. The strip is a
// security property, not just hygiene: the key format uses \x00/\x01 as
// field separators, so client-supplied text must never be able to embed
// them and mimic another query's field layout.
func normalizeText(s string) string {
	s = strings.ToLower(strings.Join(strings.Fields(s), " "))
	return strings.Map(func(r rune) rune {
		if r < 0x20 || r == 0x7f {
			return -1
		}
		return r
	}, s)
}

// writeOverrides appends the set overrides in a fixed order; unset fields
// contribute nothing, so the zero Overrides keeps the key stable.
func writeOverrides(b *strings.Builder, o Overrides) {
	if o.Temperature != nil {
		b.WriteString("t=")
		b.WriteString(strconv.FormatFloat(*o.Temperature, 'g', -1, 64))
		b.WriteByte(';')
	}
	if o.TopK != nil {
		b.WriteString("k=")
		b.WriteString(strconv.Itoa(*o.TopK))
		b.WriteByte(';')
	}
	if o.Samples != nil {
		b.WriteString("s=")
		b.WriteString(strconv.Itoa(*o.Samples))
		b.WriteByte(';')
	}
	if o.TokenBudget != nil {
		// A budget changes the outcome (a run may be refused mid-way), so
		// budgeted and unbudgeted queries must never share a cache entry or
		// a singleflight leader.
		b.WriteString("b=")
		b.WriteString(strconv.Itoa(*o.TokenBudget))
		b.WriteByte(';')
	}
}
