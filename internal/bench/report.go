package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/datasets"
	"repro/internal/kg"
)

// Report accumulates evaluation cells with timing, for the machine-readable
// CSV (benchrun -csv) alongside the human-readable tables.
type Report struct {
	// Cells are the collected results, in run order.
	Cells []TimedCell
}

// TimedCell is a Cell plus wall-clock duration.
type TimedCell struct {
	Cell
	Elapsed time.Duration
}

// Collect runs one cell and records it with timing.
func (r *Report) Collect(ctx context.Context, e *Env, method, model string, dsName string, srcOverride ...string) error {
	var ds = e.Suite.Simple
	switch dsName {
	case "QALD":
		ds = e.Suite.QALD
	case "NatureQuestions":
		ds = e.Suite.Nature
	case "SimpleQuestions":
		ds = e.Suite.Simple
	case "TemporalQuestions":
		ds = e.Suite.Temporal
	case "AggregationQuestions":
		ds = e.Suite.Aggregation
	case "AdversarialQuestions":
		ds = e.Suite.Adversarial
	case "NoisyQuestions":
		ds = e.Suite.Noisy
	default:
		return fmt.Errorf("bench: unknown dataset %q", dsName)
	}
	src := datasets.DefaultSource(ds.Name)
	if len(srcOverride) > 0 {
		parsed, err := kg.ParseSource(srcOverride[0])
		if err != nil {
			return err
		}
		src = parsed
	}
	start := time.Now()
	cell, err := e.Run(ctx, method, model, ds, src)
	if err != nil {
		return err
	}
	r.Cells = append(r.Cells, TimedCell{Cell: cell, Elapsed: time.Since(start)})
	return nil
}

// WriteCSV emits the report as CSV with a header row.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"method", "model", "dataset", "kg_source", "score", "n", "elapsed_ms"}); err != nil {
		return fmt.Errorf("bench: csv: %w", err)
	}
	for _, c := range r.Cells {
		rec := []string{
			c.Method, c.Model, c.Dataset, c.Source.String(),
			strconv.FormatFloat(c.Score, 'f', 2, 64),
			strconv.Itoa(c.N),
			strconv.FormatInt(c.Elapsed.Milliseconds(), 10),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("bench: csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
