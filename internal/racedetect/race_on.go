//go:build race

// Package racedetect tells tests whether they were built with -race.
package racedetect

// Enabled reports whether this binary runs under the race detector,
// whose instrumentation inflates client-side latencies enough to
// invalidate tight tail-latency assertions.
const Enabled = true
