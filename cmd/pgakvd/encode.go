package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// The answerResponse encoder. Every route that writes an answer — the JSON
// reply, the SSE "answer" event and each /v1/batch item (through
// MarshalJSON) — encodes it here, appending into a pooled buffer instead
// of reflecting over the struct and its prompt_versions map. Its bytes are
// encoding/json's for the same value: the field order and omitempty rules
// of the struct tags, HTML-escaped strings and sorted map keys
// (FuzzAnswerEncoding holds it to that). The include_trace trace is
// encoded by encoding/json itself, as trace.Encode encodes the record.

// MarshalJSON encodes r with appendAnswer, so an answer nested in another
// value (a /v1/batch item) is encoded by the same code.
func (r answerResponse) MarshalJSON() ([]byte, error) {
	return appendAnswer(nil, &r)
}

// replyBufs holds reply buffers between requests; a buffer that grew past
// maxPooledReply (a large trace) is left to the collector.
var replyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledReply = 64 << 10

// writeAnswer is writeJSON for an answer: the same header, status and
// bytes, the trailing newline included, written in one Write.
func writeAnswer(w http.ResponseWriter, r *answerResponse) {
	bp := replyBufs.Get().(*[]byte)
	b, err := appendAnswer((*bp)[:0], r)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err == nil {
		b = append(b, '\n')
		_, _ = w.Write(b)
	}
	if cap(b) <= maxPooledReply {
		*bp = b
		replyBufs.Put(bp)
	}
}

// appendAnswer appends r's JSON encoding, without a trailing newline, to
// dst. Like encoding/json, it fails on a non-finite kept-subject
// confidence in the trace.
func appendAnswer(dst []byte, r *answerResponse) ([]byte, error) {
	dst = append(dst, `{"answer":`...)
	dst = appendString(dst, r.Answer)
	dst = append(dst, `,"method":`...)
	dst = appendString(dst, r.Method)
	dst = append(dst, `,"model":`...)
	dst = appendString(dst, r.Model)
	dst = append(dst, `,"kg":`...)
	dst = appendString(dst, r.KG)
	if r.Epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, r.Epoch, 10)
	}
	dst = append(dst, `,"llm_calls":`...)
	dst = strconv.AppendInt(dst, int64(r.LLMCalls), 10)
	dst = append(dst, `,"prompt_tokens":`...)
	dst = strconv.AppendInt(dst, int64(r.PromptTokens), 10)
	dst = append(dst, `,"completion_tokens":`...)
	dst = strconv.AppendInt(dst, int64(r.CompletionTokens), 10)
	dst = append(dst, `,"elapsed_ms":`...)
	dst = strconv.AppendInt(dst, r.ElapsedMS, 10)
	if len(r.PromptVersions) > 0 {
		dst = append(dst, `,"prompt_versions":`...)
		dst = appendVersions(dst, r.PromptVersions)
	}
	if r.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if r.Trace != nil {
		// Only an include_trace reply gets here: its trace is encoded as
		// the trace record's artefacts are, by encoding/json.
		t, err := json.Marshal(r.Trace)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"trace":`...)
		dst = append(dst, t...)
	}
	return append(dst, '}'), nil
}

// versionsMemo holds the last prompt_versions map encoded, with its
// bytes. A reply's map is its prompt view's own, immutable and shared by
// every answer rendered from the view (prompts.View.Versions), so nearly
// every reply copies the bytes instead of sorting and escaping the map.
var versionsMemo atomic.Pointer[encodedVersions]

type encodedVersions struct {
	m    map[string]string // held, so no other map takes its address
	json []byte
}

// appendVersions is appendStringMap for a prompt view's immutable map.
func appendVersions(dst []byte, m map[string]string) []byte {
	if e := versionsMemo.Load(); e != nil && reflect.ValueOf(e.m).Pointer() == reflect.ValueOf(m).Pointer() {
		return append(dst, e.json...)
	}
	start := len(dst)
	dst = appendStringMap(dst, m)
	versionsMemo.Store(&encodedVersions{m: m, json: bytes.Clone(dst[start:])})
	return dst
}

// appendStringMap encodes m with its keys in byte order. A prompt view
// has a handful of names, so its entries are sorted in a stack array.
func appendStringMap(dst []byte, m map[string]string) []byte {
	type entry struct{ k, v string }
	var stack [16]entry
	entries := stack[:0]
	for k, v := range m {
		entries = append(entries, entry{k, v})
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.k, b.k) })
	dst = append(dst, '{')
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, e.k)
		dst = append(dst, ':')
		dst = appendString(dst, e.v)
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a JSON string holds as they are: all but
// control characters, '"', '\\' and, escaped for HTML, '<', '>' and '&'.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return safe
}()

// appendString appends s as a JSON string the way encoding/json escapes
// it: quotes, backslashes and control characters; <, > and & as \u00XX;
// each invalid UTF-8 byte as \ufffd; U+2028 and U+2029 as escapes.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
