//go:build !race

// Package racedetect tells tests whether they were built with -race.
package racedetect

// Enabled reports whether this binary runs under the race detector.
const Enabled = false
