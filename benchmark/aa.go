package main

import (
	"fmt"
	"math"
	"strings"
)

// This file is the A/A mode: the same commit measured twice must agree
// with itself within the bounds BENCHMARK.json commits to, or the bounds
// mean nothing.

// runAA runs the full set n times with the same seed. Odd-numbered sets
// form half A and even-numbered sets half B; for every metric and workload
// it prints both medians, their relative difference and the bound, and the
// exit code is non-zero when an end-to-end metric of a gated workload is
// worse in B than in A — or in A than in B — by more than its bound. Each
// set's artifact is written beside out (default
// benchmark/results/aa_run<i>.json).
func runAA(rg *rig, ip *inproc, ref *reference, opt runOptions, out string, n int) (int, error) {
	if out == "" {
		out = "benchmark/results/aa.json"
	}
	var sets []*artifact
	for i := 1; i <= n; i++ {
		fmt.Printf("# A/A set %d of %d\n", i, n)
		art, err := runSet(rg, ip, ref, workloads, opt)
		if err != nil {
			return 0, err
		}
		if err := art.write(strings.TrimSuffix(out, ".json") + fmt.Sprintf("_run%d.json", i)); err != nil {
			return 0, err
		}
		sets = append(sets, art)
	}
	code := 0
	for _, art := range sets {
		if !art.correct() {
			code = 1
		}
	}
	fmt.Println("# A/A comparison: workload metric median_A median_B rel_diff bound verdict")
	for wi, w := range workloads {
		for _, group := range []struct {
			defs    []metricDef
			bounded bool
			pick    func(*workloadResult) values
		}{
			{endToEnd, true, func(r *workloadResult) values { return r.EndToEnd }},
			{perLayer, false, func(r *workloadResult) values { return r.PerLayer }},
		} {
			for _, d := range group.defs {
				var a, b []float64
				for si, art := range sets {
					vals := group.pick(art.Workloads[wi])
					if vals == nil {
						continue
					}
					if si%2 == 0 {
						a = append(a, vals[d.Name])
					} else {
						b = append(b, vals[d.Name])
					}
				}
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				ma, mb := median(a), median(b)
				diff := relDiff(ma, mb)
				verdict := "layer"
				if group.bounded && !w.gated {
					verdict = "ungated"
				} else if group.bounded {
					verdict = "ok"
					if diff > d.Bound {
						verdict = "EXCEEDS BOUND"
						code = 1
					}
				}
				fmt.Printf("%s %s %v %v %.4f %.2f %s\n", w.Name, d.Name, ma, mb, diff, d.Bound, verdict)
			}
		}
	}
	return code, nil
}

// relDiff is |a−b| as a share of the smaller magnitude — the larger of the
// two directions "B worse than A" and "A worse than B" could read.
func relDiff(a, b float64) float64 {
	lo := math.Min(math.Abs(a), math.Abs(b))
	if a == b {
		return 0
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / lo
}
