package vecstore

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestDurationP50IsLowerMedian: the nearest-rank p50 is the lower median
// at every sample size, so the recall gate's latencies read as they did
// when durationP50 picked index (n-1)/2 itself; the input is not reordered.
func TestDurationP50IsLowerMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := durationP50(nil); got != 0 {
		t.Fatalf("empty sample: %v", got)
	}
	for n := 1; n <= 300; n++ {
		ds := make([]time.Duration, n)
		for i, v := range rng.Perm(n) {
			ds[i] = time.Duration(v)
		}
		in := slices.Clone(ds)
		if got, want := durationP50(ds), time.Duration((n-1)/2); got != want {
			t.Fatalf("n=%d: p50 %v, lower median %v", n, got, want)
		}
		if !slices.Equal(ds, in) {
			t.Fatalf("n=%d: durationP50 reordered its input", n)
		}
	}
}
