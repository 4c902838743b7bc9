package kg

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// NTLine renders one triple in the WriteNT line form: the angle-bracket
// surface with an optional "@ord=N" suffix for time-varying revisions.
func NTLine(t Triple) string {
	if t.Ord != 0 {
		return fmt.Sprintf("%s @ord=%d", t.String(), t.Ord)
	}
	return t.String()
}

// ParseNTLine parses one WriteNT-format line back into a triple. Blank
// lines and #-comments carry no triple: they return ok == false with no
// error. Errors do not carry line positions — ReadNT (and any other
// caller iterating a stream) wraps them in a *LineError.
func ParseNTLine(line string) (t Triple, ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Triple{}, false, nil
	}
	ord := 0
	// The suffix follows the last field: an "@ord=" inside a field is text.
	if i := strings.LastIndex(line, "@ord="); i > strings.LastIndexByte(line, '>') {
		if _, err := fmt.Sscanf(line[i:], "@ord=%d", &ord); err != nil {
			return Triple{}, false, fmt.Errorf("bad ord suffix: %w", err)
		}
		line = strings.TrimSpace(line[:i])
	}
	t, err = ParseTriple(line)
	if err != nil {
		return Triple{}, false, err
	}
	t.Ord = ord
	return t, true, nil
}

// LineError reports a parse failure at a specific line of an NT stream,
// so replay and ingest diagnostics can point at the offending input.
// Callers extract the position with errors.As.
type LineError struct {
	// Line is the 1-based line number within the stream being parsed.
	Line int
	// Err is the underlying parse error.
	Err error
}

// Error renders the position and the cause.
func (e *LineError) Error() string { return fmt.Sprintf("kg: line %d: %v", e.Line, e.Err) }

// Unwrap exposes the underlying parse error to errors.Is/As.
func (e *LineError) Unwrap() error { return e.Err }

// WriteNTTriples streams triples in the line-oriented N-Triples-like text
// format (see NTLine). It is the writer hook checkpointing uses for any
// consistent view (a snapshot's Prefix, not just *Store): the
// caller owns the destination, so it can write to a temporary file and
// fsync before renaming.
func WriteNTTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if _, err := bw.WriteString(NTLine(t)); err != nil {
			return fmt.Errorf("kg: write: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("kg: write: %w", err)
		}
	}
	return bw.Flush()
}

// WriteNT streams the store's triples in a line-oriented N-Triples-like
// text format: one angle-bracket triple per line, with an optional
// "@ord=N" suffix for time-varying revisions. The format round-trips
// through ReadNT and is easy to diff and grep.
func (st *Store) WriteNT(w io.Writer) error {
	return WriteNTTriples(w, st.All())
}

// ReadNT loads triples in the WriteNT format into a new store tagged with
// the given source, left open for further Adds. Blank lines and
// #-comments are skipped. Parse failures are *LineError values carrying
// the 1-based offending line.
func ReadNT(r io.Reader, source Source) (*Store, error) {
	st := NewStore(source)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		t, ok, err := ParseNTLine(sc.Text())
		if err != nil {
			return nil, &LineError{Line: lineNo, Err: err}
		}
		if !ok {
			continue
		}
		st.Add(t)
	}
	if err := sc.Err(); err != nil {
		// The scanner failed between lines (typically a token past the
		// buffer cap); report the last line that parsed so the position
		// of the failure is still findable.
		return nil, &LineError{Line: lineNo + 1, Err: fmt.Errorf("read: %w", err)}
	}
	return st, nil
}

// tripleJSON is the JSON wire form of a triple.
type tripleJSON struct {
	S   string `json:"s"`
	R   string `json:"r"`
	O   string `json:"o"`
	Ord int    `json:"ord,omitempty"`
}

// storeJSON is the JSON wire form of a store.
type storeJSON struct {
	Source  string       `json:"source"`
	Triples []tripleJSON `json:"triples"`
}

// WriteJSON serialises the store as a single JSON document.
func (st *Store) WriteJSON(w io.Writer) error {
	doc := storeJSON{Source: st.Source().String()}
	for _, t := range st.All() {
		doc.Triples = append(doc.Triples, tripleJSON{S: t.Subject, R: t.Relation, O: t.Object, Ord: t.Ord})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("kg: write json: %w", err)
	}
	return nil
}
