package main

import "testing"

// TestOutOnlyWithRecall: -out beside any experiment but recall is a usage
// error, not a silently ignored flag.
func TestOutOnlyWithRecall(t *testing.T) {
	for _, tc := range []struct {
		experiment, out string
		ok              bool
	}{
		{"recall", "/tmp/BENCH_recall.json", true},
		{"recall", "", true},
		{"table2", "", true},
		{"table2", "/tmp/BENCH.json", false},
		{"all", "/tmp/BENCH.json", false},
	} {
		if err := checkOut(tc.experiment, tc.out); (err == nil) != tc.ok {
			t.Errorf("checkOut(%q, %q) = %v, want ok=%v", tc.experiment, tc.out, err, tc.ok)
		}
	}
}
