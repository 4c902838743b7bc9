package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 99, 7},
		{"p50 of ten is the 5th", ten, 50, 5},
		{"p90 of ten is the 9th", ten, 90, 9},
		{"p91 of ten is the 10th", ten, 91, 10},
		{"p100 is the max", ten, 100, 10},
		{"p1 of ten is the 1st", ten, 1, 1},
		{"p50 of four is the 2nd", []float64{10, 20, 30, 40}, 50, 20},
		{"p75 of four is the 3rd", []float64{10, 20, 30, 40}, 75, 30},
		{"p76 of four is the 4th", []float64{10, 20, 30, 40}, 76, 40},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.sorted, c.p, got, c.want)
		}
	}
}

func TestRankSurvivesFloatError(t *testing.T) {
	// 99.9/100*1000 is 999.0000000000001 in binary; the rank is 999.
	if got := rank(1000, 99.9); got != 999 {
		t.Errorf("rank(1000, 99.9) = %d, want 999", got)
	}
	if got := rank(100000, 99.99); got != 99990 {
		t.Errorf("rank(100000, 99.99) = %d, want 99990", got)
	}
}

func TestHighestSupported(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{99, 0},       // p90 → rank 90, 9 beyond
		{100, 90},     // rank 90, 10 beyond
		{199, 90},     // p95 → rank 190, 9 beyond
		{200, 95},     // rank 190, 10 beyond
		{999, 95},     // p99 → rank 990, 9 beyond
		{1000, 99},    // rank 990, 10 beyond
		{9999, 99},    // p99.9 → rank 9990, 9 beyond
		{10000, 99.9}, // rank 9990, 10 beyond
		{100000, 99.99},
	}
	for _, c := range cases {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // unsorted on purpose: 1000..1
	}
	s := summarize(samples)
	if s.Count != 1000 || s.P50 != 500 || s.P95 != 950 || s.P99 != 990 {
		t.Errorf("summary = %+v, want count 1000, p50 500, p95 950, p99 990", s)
	}
	if s.TailPct != 99 || s.Tail != 990 {
		t.Errorf("tail = p%v %v, want p99 990", s.TailPct, s.Tail)
	}
	if math.Abs(s.Mean-500.5) > 1e-9 {
		t.Errorf("mean = %v, want 500.5", s.Mean)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median(odd) = %v, want 5", got)
	}
	if in[0] != 9 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
}
