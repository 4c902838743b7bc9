package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/datasets"
	"repro/internal/qa"
	"repro/internal/trace"
)

// Failures runs the paper's §IV-E error analysis: Ours over the paper
// trio on both models, each dataset against its default KG, with every
// answer's trace record attributed to the stage that lost it
// (trace.Attribute). One row per (dataset, model) gives n, the correct
// count and every stage's count, zeros included. The last line says
// whether §IV-E's claim, that verification is the main loss, holds
// here: it holds when gf-missed outnumbers gg-missed over all rows.
func Failures(ctx context.Context, e *Env, out io.Writer) error {
	fmt.Fprintln(out, "Failure attribution (§IV-E) — Ours; each answer attributed from its trace record")
	fmt.Fprintf(out, "%-16s %-9s %-8s %4s %7s", "Dataset", "KG", "Model", "n", trace.Correct)
	for _, stage := range trace.Losses {
		fmt.Fprintf(out, " %13s", stage)
	}
	fmt.Fprintln(out)

	total := map[trace.Attribution]int{}
	for _, ds := range []*qa.Dataset{e.Suite.Simple, e.Suite.QALD, e.Suite.Nature} {
		src := datasets.DefaultSource(ds.Name)
		for _, model := range []string{ModelGPT35, ModelGPT4} {
			items, err := e.answerAll(ctx, MethodOurs, model, ds, src)
			if err != nil {
				return err
			}
			counts := map[trace.Attribution]int{}
			for i, item := range items {
				q := ds.Questions[i]
				rec := trace.Build(item.Query, item.Result, item.Err,
					trace.Meta{KG: src.String(), Golds: q.Golds, Refs: q.Refs})
				counts[trace.Attribute(rec)]++
			}
			fmt.Fprintf(out, "%-16s %-9s %-8s %4d %7d", ds.Name, src, model, len(items), counts[trace.Correct])
			for _, stage := range trace.Losses {
				fmt.Fprintf(out, " %13d", counts[stage])
				total[stage] += counts[stage]
			}
			fmt.Fprintln(out)
		}
	}

	verdict := "flipped"
	if total[trace.GfMissed] > total[trace.GgMissed] {
		verdict = "held"
	}
	fmt.Fprintf(out, "§IV-E \"verification is the main loss\": %s (gf-missed %d, gg-missed %d)\n",
		verdict, total[trace.GfMissed], total[trace.GgMissed])
	return nil
}
