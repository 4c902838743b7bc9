// Command benchmark is the repository's performance rig: one program that
// builds cmd/pgakvd and cmd/pgakvlb, launches them as real processes on
// loopback ports, drives four named workloads from two connections, checks
// every reply, and reports end-to-end metrics (tracing off) and a
// per-layer ledger (traced in-process pass, /v1/metrics deltas, /proc and
// direct timed calls). BENCHMARK.json at the repository root declares the
// workloads, the metrics and their regression bounds; README.md in this
// directory is the glossary.
//
// Usage, from the repository root:
//
//	go run ./benchmark [-workload all|<name>] [-seed 1] [-seconds 30]
//	                   [-trace -1|0|1] [-out benchmark/results/<file>.json]
//	go run ./benchmark -aa 6     run the full set six times and compare the two halves against the bounds
//	go run ./benchmark -smoke    2-second phases, every workload: the pre-push check
//
// Every metric is printed as "workload metric value unit". With a single
// workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: -trace 0 reports the
// end-to-end metrics, -trace 1 the per-layer ones, the default both. The
// exit code is non-zero if any correctness check or operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: drives only generated inputs (zipf draws, question draws, ingested triple names)")
	seconds := flag.Int("seconds", 30, "length of each timed phase")
	traceFlag := flag.Int("trace", -1, "0 = end-to-end metrics only (tracing off), 1 = per-layer metrics only, -1 = both")
	out := flag.String("out", "", "write the JSON artifact here")
	aa := flag.Int("aa", 0, "A/A mode: run the full set this many times (at least 2) and compare the halves against the committed bounds")
	smoke := flag.Bool("smoke", false, "2-second phases and a single set-up per workload")
	controlAddr := flag.String("control-server", "", "internal: serve as the control server on this address (see control.go)")
	flag.Parse()
	if *controlAddr != "" {
		controlMain(*controlAddr)
		return
	}

	opt := runOptions{seed: *seed, seconds: *seconds, setups: setupRepeats, e2e: *traceFlag != 1, layers: *traceFlag != 0}
	if !opt.e2e {
		opt.setups = 1 // setup_s is an end-to-end metric
	}
	if *smoke {
		opt.seconds, opt.setups = 2, 1
	}
	if opt.seconds < 1 || flag.NArg() > 0 || *traceFlag < -1 || *traceFlag > 1 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *workloadFlag != "all" {
		w, err := workloadByName(*workloadFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	code, err := run(selected, opt, *out, *aa)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// run executes the selected mode and returns the process exit code.
func run(selected []*workload, opt runOptions, out string, aa int) (code int, err error) {
	rg, err := newRig()
	if err != nil {
		return 0, err
	}
	defer rg.close()
	ip, err := newInproc()
	if err != nil {
		return 0, err
	}
	ref, err := buildReference(ip)
	if err != nil {
		return 0, err
	}
	if err := rg.startControl(ip.bodies[0]); err != nil {
		return 0, err
	}
	if aa > 0 {
		return runAA(rg, ip, ref, opt, out, max(aa, 2))
	}
	art, err := runSet(rg, ip, ref, selected, opt)
	if err != nil {
		return 0, err
	}
	if out != "" {
		if err := art.write(out); err != nil {
			return 0, err
		}
	}
	if len(selected) == 1 {
		if err := art.Workloads[0].printResultLine(); err != nil {
			return 0, err
		}
	}
	if !art.correct() {
		return 1, nil
	}
	return 0, nil
}

// artifact is the JSON file one run of the set leaves behind.
type artifact struct {
	Env       envFingerprint    `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

func (a *artifact) correct() bool {
	for _, w := range a.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (a *artifact) write(path string) error {
	raw, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// envFingerprint records where numbers were taken. Compare only like with
// like: two artifacts whose fingerprints differ in anything but the commit
// are not comparable.
type envFingerprint struct {
	Commit       string `json:"commit"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	WorldSeed    int64  `json:"world_seed"`
	WorkloadSeed int64  `json:"workload_seed"`
	Seconds      int    `json:"seconds"`
}

func fingerprint(root string, opt runOptions) envFingerprint {
	fp := envFingerprint{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", WorldSeed: worldSeed, WorkloadSeed: opt.seed, Seconds: opt.seconds,
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if raw, err := cmd.Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fp
}

// runSet measures each selected workload once and prints its metrics.
func runSet(rg *rig, ip *inproc, ref *reference, selected []*workload, opt runOptions) (*artifact, error) {
	art := &artifact{Env: fingerprint(rg.root, opt)}
	var direct values
	for _, w := range selected {
		res, err := runWorkload(rg, ip, ref, w, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if opt.layers {
			chk := &checker{}
			traced, err := tracedPass(rg, ip, w, opt.seed, chk)
			if err != nil {
				return nil, fmt.Errorf("%s: traced pass: %w", w.Name, err)
			}
			if direct == nil { // workload-independent: once per process
				if direct, err = directCalls(rg, ip, ref); err != nil {
					return nil, fmt.Errorf("direct timed calls: %w", err)
				}
			}
			for _, src := range []values{traced, direct} {
				for k, v := range src {
					res.PerLayer[k] = v
				}
			}
			res.Isolation = isolation(w, res.PerLayer)
			res.PerLayer = fill(perLayer, res.PerLayer)
			if chk.failures > 0 {
				res.Correct = false
				res.Failures = append(res.Failures, chk.first...)
			}
		}
		res.print()
		art.Workloads = append(art.Workloads, res)
	}
	return art, nil
}

// print writes "workload metric value unit" for every metric, then the
// operation counts, the isolation verdicts and any check failures.
func (r *workloadResult) print() {
	for _, group := range []struct {
		defs []metricDef
		vals values
	}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
		if group.vals == nil {
			continue
		}
		for _, d := range group.defs {
			fmt.Printf("%s %s %v %s\n", r.Workload, d.Name, group.vals[d.Name], d.Unit)
		}
	}
	for _, d := range endToEnd {
		if v, ok := r.Raw[d.Name]; ok {
			fmt.Printf("%s as_measured.%s %v %s\n", r.Workload, d.Name, v, d.Unit)
		}
	}
	for _, op := range sortedKeys(r.Ops) {
		c := r.Ops[op]
		fmt.Printf("%s ops.%s attempted=%d ok=%d refused=%d failed=%d\n", r.Workload, op, c.Attempted, c.OK, c.Refused, c.Failed)
	}
	for _, name := range sortedKeys(r.Latency) {
		s := r.Latency[name]
		fmt.Printf("%s latency.%s n=%d p50=%.4f ms", r.Workload, name, s.Count, s.P50)
		if s.TailPct > 0 {
			fmt.Printf(" highest supported p%v=%.4f ms", s.TailPct, s.Tail)
		}
		fmt.Println()
	}
	for _, line := range r.Isolation {
		fmt.Printf("%s isolation %s\n", r.Workload, line)
	}
	for _, f := range r.Failures {
		fmt.Printf("%s CHECK FAILED %s\n", r.Workload, f)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResultLine writes the one-object summary a harness reads from the
// last line of standard output.
func (r *workloadResult) printResultLine() error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed := r.attemptedFailed()
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.Correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, group := range []struct {
		defs []metricDef
		vals values
	}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
		for _, d := range group.defs {
			if v, ok := group.vals[d.Name]; ok {
				line.Metrics[d.Name] = metric{v, d.Unit}
			}
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}
