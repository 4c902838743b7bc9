// Command replay is the record/replay regression harness front end.
//
// Subcommands:
//
//	replay record -out suite.jsonl [-seed 42] [-quick] [-methods Ours,CoT]
//	              [-model GPT-3.5] [-per-dataset 0] [-note ...]
//	    Answer every (question, method) cell against a fresh environment
//	    and write the suite: trace records with gold material, no wall
//	    time, deterministic IDs.
//
//	replay record -from-traces traces.jsonl -out suite.jsonl [-seed 42] [-quick] [-note ...]
//	    Convert a live trace log (cmd/pgakvd's -trace-dir JSONL) into a
//	    suite instead of answering anything: wall time is stripped, IDs
//	    are restamped deterministically, and recorded prompt versions are
//	    promoted into the suite meta. -seed/-quick must name the world the
//	    traffic ran against; -methods/-model/-per-dataset do not apply.
//
//	replay run -suite suite.jsonl -out artifact.json
//	    Replay a recorded suite against the current binary (environment
//	    pinned to the suite's seed/scale, sequential, cache off) and write
//	    the deterministic artifact. Replaying the same suite twice yields
//	    byte-identical artifacts.
//
//	replay diff -baseline old.json -current new.json
//	            [-max-accuracy-drop 0.5] [-max-p95-inflation 1.25]
//	            [-max-token-inflation 1.10]
//	    Compare two artifacts under the regression gate. Exit 1 when the
//	    gate fails — this is what CI's replay-gate job runs.
//
// See docs/operations.md for the baseline-refresh runbook.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/replay"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "run", "replay":
		err = cmdRun(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "replay: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  replay record -out suite.jsonl [-seed N] [-quick] [-methods a,b] [-model M] [-per-dataset N] [-note ...]
  replay record -from-traces traces.jsonl -out suite.jsonl [-seed N] [-quick] [-note ...]
  replay run    -suite suite.jsonl -out artifact.json [-timeout 0]
  replay diff   -baseline old.json -current new.json [-max-accuracy-drop PP] [-max-p95-inflation X] [-max-token-inflation X]`)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "", "suite file to write (required)")
	seed := fs.Int64("seed", 42, "world/model seed to pin the suite to")
	quick := fs.Bool("quick", false, "record against the small test-scale environment")
	methods := fs.String("methods", "", "comma-separated registry methods (default: every registry method)")
	model := fs.String("model", "", "model label (default GPT-3.5)")
	perDataset := fs.Int("per-dataset", 0, "cap questions per dataset (0 = all)")
	note := fs.String("note", "", "provenance note stored in the suite meta")
	fromTraces := fs.String("from-traces", "", "convert this live trace log into a suite instead of recording one")
	timeout := fs.Duration("timeout", 0, "overall deadline (0 = none)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record: -out is required")
	}
	ctx, cancel := withTimeout(*timeout)
	defer cancel()

	opts := replay.RecordOptions{
		Seed: *seed, Quick: *quick, Model: *model,
		PerDataset: *perDataset, Note: *note,
	}
	if *methods != "" {
		for _, m := range strings.Split(*methods, ",") {
			if m = strings.TrimSpace(m); m != "" {
				opts.Methods = append(opts.Methods, m)
			}
		}
	}
	start := time.Now()
	var suite replay.Suite
	var err error
	if *fromTraces != "" {
		if *methods != "" || *model != "" || *perDataset != 0 {
			return fmt.Errorf("record: -methods/-model/-per-dataset do not apply with -from-traces (the log already fixes them)")
		}
		suite, err = replay.SuiteFromTraces(*fromTraces, opts)
	} else {
		suite, err = replay.RecordSuite(ctx, opts)
	}
	if err != nil {
		return err
	}
	if err := replay.WriteSuite(*out, suite); err != nil {
		return err
	}
	fmt.Printf("recorded %d cells to %s in %v (seed=%d quick=%v)\n",
		len(suite.Records), *out, time.Since(start).Round(time.Millisecond), suite.Meta.Seed, suite.Meta.Quick)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	suitePath := fs.String("suite", "", "recorded suite to replay (required)")
	out := fs.String("out", "", "artifact file to write (stdout when empty)")
	timeout := fs.Duration("timeout", 0, "overall deadline (0 = none)")
	ann := fs.Bool("ann", false, "serve retrieval through the HNSW layer; the artifact must stay byte-identical to an exact-scan run")
	annEf := fs.Int("ann-ef", 0, "HNSW search beam width (0 = vecstore default; only meaningful with -ann)")
	fs.Parse(args)
	if *suitePath == "" {
		return fmt.Errorf("run: -suite is required")
	}
	ctx, cancel := withTimeout(*timeout)
	defer cancel()

	suite, err := replay.ReadSuite(*suitePath)
	if err != nil {
		return err
	}
	var opts []replay.RunOption
	if *ann {
		opts = append(opts, replay.WithANN(*annEf))
	}
	start := time.Now()
	art, err := replay.Run(ctx, suite, opts...)
	if err != nil {
		return err
	}
	raw, err := art.Encode()
	if err != nil {
		return err
	}
	if *out == "" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "replayed %d cells in %v\n%s", art.Cells, time.Since(start).Round(time.Millisecond), art.Summary())
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	basePath := fs.String("baseline", "", "baseline artifact (required)")
	curPath := fs.String("current", "", "current artifact (required)")
	th := replay.DefaultThresholds()
	fs.Float64Var(&th.MaxAccuracyDropPP, "max-accuracy-drop", th.MaxAccuracyDropPP, "largest tolerated per-method accuracy drop in percentage points")
	fs.Float64Var(&th.MaxP95Inflation, "max-p95-inflation", th.MaxP95Inflation, "largest tolerated current/baseline virtual p95 ratio")
	fs.Float64Var(&th.MaxTokenInflation, "max-token-inflation", th.MaxTokenInflation, "largest tolerated current/baseline token-cost ratio")
	fs.Parse(args)
	if *basePath == "" || *curPath == "" {
		return fmt.Errorf("diff: -baseline and -current are required")
	}
	baseline, err := readArtifact(*basePath)
	if err != nil {
		return err
	}
	current, err := readArtifact(*curPath)
	if err != nil {
		return err
	}
	rep := replay.Diff(baseline, current, th)
	fmt.Print(rep.Format())
	if !rep.OK() {
		os.Exit(1)
	}
	return nil
}

func readArtifact(path string) (replay.Artifact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return replay.Artifact{}, err
	}
	a, err := replay.DecodeArtifact(raw)
	if err != nil {
		return replay.Artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.Background(), func() {}
}
