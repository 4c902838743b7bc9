package main

import (
	"math"
	"reflect"
	"testing"
)

// The box speed index is the pooled median of the control's round trips
// over its nominal value.
func TestSpeedIndex(t *testing.T) {
	if got := speedIndex(); got != 1 {
		t.Errorf("no samples: index %v, want 1", got)
	}
	// Pooled and sorted: 1 2 3 4 5 → nearest-rank median 3.
	got := speedIndex([]float64{5, 1}, []float64{3}, []float64{4, 2})
	if want := 3 / controlNominalMS; math.Abs(got-want) > 1e-12 {
		t.Errorf("index %v, want %v", got, want)
	}
}

// A phase of s seconds is whole rounds of control + load; the writer's
// schedule is laid over the load seconds only.
func TestRounds(t *testing.T) {
	for _, c := range []struct {
		seconds, rounds int
		load            float64
	}{{2, 1, 1.5}, {3, 1, 1.5}, {24, 12, 18}, {30, 15, 22.5}} {
		if got := rounds(c.seconds); got != c.rounds {
			t.Errorf("rounds(%d) = %d, want %d", c.seconds, got, c.rounds)
		}
		if got := loadSeconds(c.seconds); got != c.load {
			t.Errorf("loadSeconds(%d) = %v, want %v", c.seconds, got, c.load)
		}
	}
}

// The control's work is a function of its request alone.
func TestControlWorkDeterministic(t *testing.T) {
	mat := make([]float32, controlRows*controlDim)
	for i := range mat {
		mat[i] = float32(i%97) - 48
	}
	req := controlRequest{Question: "who directed the film?", Method: "ours", KG: "wikidata"}
	a, b := controlWork(mat, req), controlWork(mat, req)
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs on one request differ")
	}
	if len(a.Triples) != 8*controlPasses || len(a.Scores) != len(a.Triples) {
		t.Errorf("%d triples and %d scores, want %d of each", len(a.Triples), len(a.Scores), 8*controlPasses)
	}
}
