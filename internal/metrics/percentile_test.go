package metrics

import "testing"

func TestPercentileHandCases(t *testing.T) {
	seq := func(n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i + 1
		}
		return s
	}
	cases := []struct {
		n, p, want int
	}{
		{1, 50, 1}, {1, 95, 1}, {1, 99, 1}, {1, 100, 1},
		{2, 50, 1}, {2, 95, 2}, {2, 99, 2}, {2, 100, 2},
		{100, 50, 50}, {100, 95, 95}, {100, 99, 99}, {100, 100, 100},
		{0, 50, 0},    // empty sample: zero value
		{10, 0, 1},    // rank clamps up to the first element
		{10, 150, 10}, // and down to the last
	}
	for _, c := range cases {
		if got := Percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("Percentile(1..%d, %d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{0.5, 1.5, 9}, 50); got != 1.5 {
		t.Errorf("float sample p50 = %g, want 1.5", got)
	}
}
