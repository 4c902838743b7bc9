// Command benchrun regenerates the paper's tables and figures against the
// synthetic environment; -experiment lists the experiment index.
//
// Usage:
//
//	benchrun -experiment all            # every table and figure
//	benchrun -experiment table2         # main results only
//	benchrun -experiment fig2 -quick    # fast, smaller environment
//	benchrun -experiment table2 -csv cells.csv   # also write every cell as CSV
//	benchrun -experiment recall -out BENCH_recall.json   # ANN recall gate + its record
//	benchrun -experiment failures       # §IV-E: the stage that lost each wrong answer
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/node"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: table1|fig2|table2|table3|table4|table5|scenarios|sweeps|failures|recall|all")
	quick := flag.Bool("quick", false, "use the small test-scale environment")
	seed := flag.Int64("seed", 42, "world/model seed")
	workers := flag.Int("workers", 8, "evaluation parallelism")
	timeout := flag.Duration("timeout", 0, "overall deadline for the run (0 = none)")
	csvPath := flag.String("csv", "", "also write a machine-readable CSV of every Table II cell to this path")
	outPath := flag.String("out", "", "recall experiment: also write the run's BENCH_*.json record to this path")
	recallN := flag.Int("recall-n", 0, "recall experiment: corpus size (0 = default 100000)")
	recallQueries := flag.Int("recall-queries", 0, "recall experiment: probe count (0 = default 200)")
	recallFloor := flag.Float64("recall-floor", 0.95, "recall experiment: minimum recall@k; below it the run exits non-zero (0 = no gate)")
	recallMinSpeedup := flag.Float64("recall-min-speedup", 5, "recall experiment: minimum exact/hnsw p50 ratio; below it the run exits non-zero (0 = no gate)")
	annM := flag.Int("ann-m", 0, "recall experiment: HNSW M, neighbours per node (0 = vecstore default)")
	annEfc := flag.Int("ann-efc", 0, "recall experiment: HNSW efConstruction beam (0 = vecstore default)")
	annEf := flag.Int("ann-ef", 0, "recall experiment: HNSW efSearch beam (0 = vecstore default)")
	flag.Parse()
	if err := checkOut(*experiment, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(2)
	}

	if *experiment == "recall" {
		// Standalone: no environment to build, just the two indexes.
		opts := bench.RecallOptions{
			N: *recallN, Queries: *recallQueries,
			M: *annM, EfConstruction: *annEfc, EfSearch: *annEf,
			Seed: *seed, Floor: *recallFloor, MinSpeedup: *recallMinSpeedup,
		}
		pr, err := bench.RunRecall(opts, os.Stdout)
		if *outPath != "" {
			art := bench.BuildRecallPerf(pr, *seed, time.Now())
			if werr := writeTo(*outPath, art.Write); werr != nil {
				fmt.Fprintln(os.Stderr, "benchrun:", werr)
				os.Exit(1)
			}
			fmt.Println("recall artifact written to", *outPath)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *experiment, *quick, *seed, *workers, *csvPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}

// checkOut rejects -out beside any experiment but recall: only the recall
// gate has a record to write, and a flag that is accepted and then
// ignored reads as an artifact that was never produced.
func checkOut(experiment, outPath string) error {
	if outPath != "" && experiment != "recall" {
		return fmt.Errorf("-out is written by -experiment recall only (got -experiment %s); -csv writes the tables' cells", experiment)
	}
	return nil
}

func run(ctx context.Context, experiment string, quick bool, seed int64, workers int, csvPath string) error {
	cfg := bench.DefaultEnvConfig()
	if quick {
		cfg = bench.QuickEnvConfig()
	}
	cfg.WorldSeed = seed
	cfg.Workers = workers

	start := time.Now()
	env, err := bench.NewEnv(cfg)
	if err != nil {
		return err
	}
	// Timing goes to stderr, so stdout is the same at any -workers.
	fmt.Fprintf(os.Stderr, "environment ready in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Println(env.World.Stats())
	for _, src := range node.Sources {
		fmt.Printf("  KG[%s]: %s\n", src, env.Substrates[src].Stats())
	}
	fmt.Print(env.Suite.Describe())
	fmt.Println()

	out := os.Stdout
	runOne := func(name string) error {
		t := time.Now()
		var err error
		switch name {
		case "table1":
			bench.Table1(out)
		case "fig2":
			_, err = bench.Fig2(ctx, env, out)
		case "table2":
			err = bench.Table2(ctx, env, out)
		case "table3":
			err = bench.Table3(ctx, env, out)
		case "table4":
			err = bench.Table4(ctx, env, out)
		case "table5":
			err = bench.Table5(ctx, env, out)
		case "scenarios":
			err = bench.Scenarios(ctx, env, out)
		case "sweeps":
			err = bench.Sweeps(ctx, env, out)
		case "failures":
			err = bench.Failures(ctx, env, out)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(t).Round(time.Millisecond))
		fmt.Println()
		return nil
	}

	if experiment == "all" {
		for _, name := range []string{"table1", "fig2", "table2", "table3", "table4", "table5", "scenarios"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
	} else if err := runOne(experiment); err != nil {
		return err
	}

	if csvPath != "" {
		report, err := collectTable2Report(ctx, env)
		if err != nil {
			return err
		}
		if err := writeTo(csvPath, report.WriteCSV); err != nil {
			return err
		}
		fmt.Println("CSV report written to", csvPath)
	}
	return nil
}

// collectTable2Report re-runs every Table II cell plus the scenario-pack
// cells through the Report collector (cells are cheap; the environment is
// already warm) for the CSV.
func collectTable2Report(ctx context.Context, env *bench.Env) (*bench.Report, error) {
	r := &bench.Report{}
	for _, model := range []string{bench.ModelGPT35, bench.ModelGPT4} {
		for _, method := range []string{bench.MethodToG, bench.MethodIO, bench.MethodCoT, bench.MethodSC, bench.MethodRAG, bench.MethodOurs} {
			for _, ds := range []string{"SimpleQuestions", "QALD", "NatureQuestions"} {
				if method == bench.MethodToG && ds == "NatureQuestions" {
					continue
				}
				if err := r.Collect(ctx, env, method, model, ds); err != nil {
					return nil, err
				}
			}
		}
	}
	// Scenario-pack cells: the parametric/graph method split over the four
	// stress sets, GPT-3.5 grade (mirrors bench.Scenarios).
	for _, method := range []string{bench.MethodIO, bench.MethodCoT, bench.MethodRAG, bench.MethodOurs} {
		for _, ds := range []string{"TemporalQuestions", "AggregationQuestions", "AdversarialQuestions", "NoisyQuestions"} {
			if err := r.Collect(ctx, env, method, bench.ModelGPT35, ds); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
