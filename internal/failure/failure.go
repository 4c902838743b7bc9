// Package failure is the one vocabulary for what went wrong: a closed set
// of classes, each with its wire name, HTTP status, retry rule and
// Retry-After rule, and one classifier, Of, that maps an error onto it.
//
// Every surface that names a failure uses a Class: a stage span's err, an
// HTTP error body's class, a /v1/batch item, a trace record's
// error_class, the per-method /v1/metrics counters and the replication
// endpoints. Class is an integer, so no string literal can be one; its
// wire name comes from the table alone.
//
// The package imports nothing from the module, so any package can
// depend on it without a cycle.
package failure

import (
	"context"
	"errors"
	"fmt"
)

// Class is one kind of failure. The zero value, None, means no failure.
type Class uint8

// The classes, in table order; each one's row of table gives its wire
// name, status and retry rules, and says what it means.
const (
	None Class = iota
	Canceled
	Deadline
	UnknownMethod
	InvalidQuery
	Budget
	Upstream
	Storage
	Unsupported
	Shed
	RateLimited
	TooLarge
	Replica
	Conflict
	NotFound
	InvalidPrompts
	Truncated
	Unreachable

	NumClasses // every Class is below it: a [NumClasses] array has a slot for each
)

// table is indexed by Class (None's row is empty): the wire name; the
// HTTP status a reply of the class carries; whether the same request,
// sent again unchanged, may succeed; and whether the reply sets
// Retry-After.
var table = [NumClasses]struct {
	name                  string
	status                int
	retryable, retryAfter bool
}{
	Canceled:       {"canceled", 499, true, false},         // the client cancelled or went away (nginx's 499)
	Deadline:       {"deadline", 504, true, false},         // the request's or a stage's deadline expired
	UnknownMethod:  {"unknown-method", 400, false, false},  // the registry has no such method
	InvalidQuery:   {"invalid-query", 400, false, false},   // a malformed body, label, triple or question
	Budget:         {"budget", 429, false, false},          // the request's token budget ran out mid-run
	Upstream:       {"upstream", 500, true, false},         // the LLM client or a pipeline stage failed
	Storage:        {"storage", 500, true, false},          // a WAL, checkpoint or trace-log write or read failed
	Unsupported:    {"unsupported", 501, false, false},     // the server, as started, cannot serve the request
	Shed:           {"shed", 429, true, true},              // the admission queue was full
	RateLimited:    {"rate-limited", 429, true, true},      // the client's token bucket was empty
	TooLarge:       {"too-large", 413, false, false},       // the body exceeded the size cap
	Replica:        {"replica", 307, false, false},         // a write reached a read replica; redirect to the primary
	Conflict:       {"conflict", 409, true, false},         // a compaction or checkpoint is already running
	NotFound:       {"not-found", 404, false, false},       // no such trace, source or checkpoint, or the route is off
	InvalidPrompts: {"invalid-prompts", 422, false, false}, // a prompt reload was rejected
	Truncated:      {"truncated", 410, false, false},       // the WAL no longer reaches back to the asked epoch
	Unreachable:    {"unreachable", 502, true, false},      // the router could not reach the node it chose
}

// String returns the class's wire name ("" for None).
func (c Class) String() string { return table[c].name }

// Status returns the HTTP status a reply of the class carries.
func (c Class) Status() int { return table[c].status }

// RetryAfter reports whether a reply of the class sets Retry-After.
func (c Class) RetryAfter() bool { return table[c].retryAfter }

// MarshalText writes the wire name.
func (c Class) MarshalText() ([]byte, error) { return []byte(table[c].name), nil }

// UnmarshalText reads a wire name; a name outside the table is an error.
func (c *Class) UnmarshalText(text []byte) error {
	for i := range table {
		if table[i].name == string(text) {
			*c = Class(i)
			return nil
		}
	}
	return fmt.Errorf("failure: unknown class %q", text)
}

// Classer is implemented by an error that carries its own class, so Of
// needs no knowledge of the package that made it.
type Classer interface {
	Class() Class
}

// Of classifies err: None for nil; Deadline, then Canceled, when err
// wraps a context error (a deadline names a cause, while a cancellation
// may be its consequence); else the class of the first Classer in err's
// chain; else Upstream.
func Of(err error) Class {
	switch {
	case err == nil:
		return None
	case errors.Is(err, context.DeadlineExceeded):
		return Deadline
	case errors.Is(err, context.Canceled):
		return Canceled
	}
	var classed Classer
	if errors.As(err, &classed) {
		return classed.Class()
	}
	return Upstream
}

// Wrap returns err carrying class c: Of reports c for it, or for any
// error that wraps it, unless a context error is in the chain.
func Wrap(c Class, err error) error { return &classed{class: c, err: err} }

type classed struct {
	class Class
	err   error
}

func (e *classed) Error() string { return e.err.Error() }
func (e *classed) Unwrap() error { return e.err }
func (e *classed) Class() Class  { return e.class }
