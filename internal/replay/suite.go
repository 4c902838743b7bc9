// Package replay is the record/replay regression harness built on the
// trace store: it records an evaluation suite (dataset questions with
// gold material, answered by the current binary) as trace Records, and
// replays a recorded suite against the current binary with the simulated
// LLMs pinned to the suite's seed and scale. Replay produces a fully
// deterministic Artifact — per-method accuracy, token cost, virtual
// latency percentiles, error-class buckets — and Diff compares an
// artifact against a committed baseline under gate thresholds, which is
// what CI's replay-gate job runs.
//
// Determinism contract: replaying the same suite twice produces
// byte-identical artifacts. Everything nondeterministic is excluded by
// construction — runs are sequential, the answer cache is off, suite
// records carry no wall time, and latency percentiles are computed over a
// virtual latency model (a pure function of LLM calls and token counts)
// rather than measured wall time. Wall time still flows into live trace
// records; it is only the regression gate that must not see it.
package replay

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

// SuiteVersion is the on-disk format version WriteSuite stamps.
const SuiteVersion = 1

// SuiteMeta is the header line of a suite file: the environment pin every
// replay of the suite must reproduce.
type SuiteMeta struct {
	// Version is the suite file format version.
	Version int `json:"suite_version"`
	// Seed is the world/model seed the suite was recorded under; replay
	// rebuilds the environment with the same seed so the simulated LLMs
	// and the generated KG match the recording.
	Seed int64 `json:"seed"`
	// Quick selects the small test-scale environment (true for the
	// committed CI suite; false for paper-scale recordings).
	Quick bool `json:"quick"`
	// PromptVersions pins the active prompt versions the suite was
	// recorded under (prompt name -> version string); replay applies them
	// to its registry before re-running, so a prompt bump cannot silently
	// change what a committed suite replays. Empty means the embedded
	// defaults' active set (pre-registry suites).
	PromptVersions map[string]string `json:"prompt_versions,omitempty"`
	// Note is free-form provenance (who recorded it, why).
	Note string `json:"note,omitempty"`
}

// Suite is a recorded evaluation suite: the environment pin plus one
// trace Record per (question, method) cell, each carrying its gold
// material.
type Suite struct {
	Meta    SuiteMeta
	Records []trace.Record
}

// WriteSuite serializes a suite: one meta header line, then one record
// per line in the trace codec. The write is atomic (temp file + rename)
// so a crashed recorder never leaves a torn suite behind.
func WriteSuite(path string, s Suite) error {
	s.Meta.Version = SuiteVersion
	tmp, err := os.CreateTemp(dirOf(path), ".suite-*")
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	head, err := json.Marshal(s.Meta)
	if err != nil {
		return fmt.Errorf("replay: encoding suite meta: %w", err)
	}
	head = append(head, '\n')
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for i, rec := range s.Records {
		line, err := trace.Encode(rec)
		if err != nil {
			return fmt.Errorf("replay: encoding record %d: %w", i, err)
		}
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	return nil
}

// ReadSuite parses a suite file. Unlike the trace store's recovery (which
// tolerates torn tails on a live log), a suite is a committed artifact:
// any malformed line is a hard error.
func ReadSuite(path string) (Suite, error) {
	f, err := os.Open(path)
	if err != nil {
		return Suite{}, fmt.Errorf("replay: %w", err)
	}
	defer f.Close()
	return readSuite(f, path)
}

func readSuite(r io.Reader, path string) (Suite, error) {
	var s Suite
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Suite{}, fmt.Errorf("replay: reading %s: %w", path, err)
		}
		return Suite{}, fmt.Errorf("replay: %s is empty (no suite meta line)", path)
	}
	if err := json.Unmarshal(sc.Bytes(), &s.Meta); err != nil {
		return Suite{}, fmt.Errorf("replay: %s meta line: %w", path, err)
	}
	if s.Meta.Version != SuiteVersion {
		return Suite{}, fmt.Errorf("replay: %s has suite version %d, this binary reads version %d", path, s.Meta.Version, SuiteVersion)
	}
	for line := 2; sc.Scan(); line++ {
		rec, err := trace.Decode(sc.Bytes())
		if err != nil {
			return Suite{}, fmt.Errorf("replay: %s line %d: %w", path, line, err)
		}
		s.Records = append(s.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return Suite{}, fmt.Errorf("replay: reading %s: %w", path, err)
	}
	if len(s.Records) == 0 {
		return Suite{}, fmt.Errorf("replay: %s holds no records", path)
	}
	return s, nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i+1]
		}
	}
	return "."
}
