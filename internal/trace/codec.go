package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// The JSONL codec: one Record per line. Encode produces exactly one
// newline-terminated line (json.Marshal escapes control characters, so a
// record can never span lines); Decode parses one line back, rejecting
// torn or truncated records with an error instead of a partial Record.

// Encode marshals a record as a single newline-terminated JSONL line.
func Encode(r Record) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("trace: encode record: %w", err)
	}
	return append(b, '\n'), nil
}

// Decode parses one JSONL line into a Record. The line may carry its
// trailing newline. A torn line (truncated JSON), trailing garbage after
// the record, or a blank line all error cleanly.
func Decode(line []byte) (Record, error) {
	line = bytes.TrimRight(line, "\r\n")
	if len(bytes.TrimSpace(line)) == 0 {
		return Record{}, fmt.Errorf("trace: decode: empty line")
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	var r Record
	if err := dec.Decode(&r); err != nil {
		return Record{}, fmt.Errorf("trace: decode record: %w", err)
	}
	// Anything after the object means the line glued two records together
	// (a torn write followed by an append): refuse rather than silently
	// dropping the tail.
	if dec.More() {
		return Record{}, fmt.Errorf("trace: decode record: trailing data after record")
	}
	r.dropEmpty()
	return r, nil
}

// dropEmpty sets every omitempty list and map that decoded empty ("[]",
// "{}") to nil: Encode omits an empty one, so a re-decoded record holds
// nil there, and a decoded record must survive Encode then Decode as it
// is.
func (r *Record) dropEmpty() {
	for _, list := range []*[]string{&r.Anchors, &r.Golds, &r.Refs, &r.Gp, &r.Gg, &r.Gf} {
		if len(*list) == 0 {
			*list = nil
		}
	}
	if len(r.Stages) == 0 {
		r.Stages = nil
	}
	if len(r.Kept) == 0 {
		r.Kept = nil
	}
	if len(r.PromptVersions) == 0 {
		r.PromptVersions = nil
	}
}
