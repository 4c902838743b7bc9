package metrics

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample: the element at 1-based rank ceil(p*n/100), the
// smallest value with at least p% of the sample at or below it. Rank
// arithmetic is integer and nothing is interpolated, so identical samples
// give identical results to the last bit (the replay gate compares
// artifacts byte for byte). An empty sample yields the zero value.
func Percentile[T any](sorted []T, p int) T {
	n := len(sorted)
	if n == 0 {
		var zero T
		return zero
	}
	rank := (p*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
