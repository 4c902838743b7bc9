// Command kgtool generates and inspects the synthetic world and its KG
// renderings.
//
// Usage:
//
//	kgtool -stats                         # world + both KG stores
//	kgtool -dump wikidata -limit 20       # print triples of one schema
//	kgtool -subject "Lake ..." -dump wikidata
//	kgtool -datasets                      # dataset summaries + samples
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"repro/internal/datasets"
	"repro/internal/kg"
	"repro/internal/node"
	"repro/internal/qa"
	"repro/internal/world"
)

func main() {
	stats := flag.Bool("stats", false, "print world and store statistics")
	dump := flag.String("dump", "", "dump triples of a KG source: wikidata|freebase")
	subject := flag.String("subject", "", "restrict -dump to one subject")
	limit := flag.Int("limit", 30, "max triples to dump")
	dataset := flag.Bool("datasets", false, "print dataset summaries with samples")
	export := flag.String("export", "", "export a KG as JSON to stdout: wikidata|freebase")
	exportNT := flag.String("export-nt", "", "export a KG as NT text to stdout: wikidata|freebase")
	exportDS := flag.String("export-dataset", "", "export a dataset as JSON to stdout: simple|qald|nature")
	exportWorld := flag.Bool("export-world", false, "export the whole world as JSON to stdout")
	quick := flag.Bool("quick", true, "use the small environment")
	seed := flag.Int64("seed", 42, "world seed")
	flag.Parse()

	if err := run(opts{*stats, *dump, *subject, *limit, *dataset, *export, *exportNT, *exportDS, *exportWorld, *quick, *seed}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kgtool:", err)
		os.Exit(1)
	}
}

type opts struct {
	stats       bool
	dump        string
	subject     string
	limit       int
	dataset     bool
	export      string
	exportNT    string
	exportDS    string
	exportWorld bool
	quick       bool
	seed        int64
}

// run writes what o asks for to out. It builds no node: the world from
// the node config's seeded world section, its KG renderings, and the
// datasets over it.
func run(o opts, out io.Writer) error {
	stats, dump, subject, limit, dataset, quick, seed :=
		o.stats, o.dump, o.subject, o.limit, o.dataset, o.quick, o.seed
	wcfg := node.ConfigFor(quick).World
	wcfg.Seed = seed
	w, err := world.Generate(wcfg)
	if err != nil {
		return err
	}
	dcfg := datasets.DefaultConfig()
	if quick {
		dcfg = datasets.QuickConfig()
	}
	suite, err := datasets.Build(w, dcfg)
	if err != nil {
		return err
	}
	// The seed KG per source, rendered from the world as every node
	// renders the seed of its substrate.
	stores := map[kg.Source]*kg.Store{}
	for _, src := range node.Sources {
		schema, err := world.SchemaFor(src)
		if err != nil {
			return err
		}
		stores[src] = schema.Render(w)
	}

	did := false
	if stats {
		did = true
		s := w.Stats()
		fmt.Fprintln(out, s)
		for _, kind := range slices.Sorted(maps.Keys(s.ByKind)) {
			fmt.Fprintf(out, "  %-16s %d\n", kind, s.ByKind[kind])
		}
		for _, src := range node.Sources {
			fmt.Fprintf(out, "KG[%s]: %s\n", src, stores[src].Stats())
		}
	}
	if dump != "" {
		did = true
		src, err := kg.ParseSource(dump)
		if err != nil {
			return err
		}
		st, ok := stores[src]
		if !ok {
			return fmt.Errorf("no store for source %q", dump)
		}
		var triples []kg.Triple
		if subject != "" {
			canonical, ok := st.FindSubjectFold(subject)
			if !ok {
				return fmt.Errorf("subject %q not found in %s KG", subject, dump)
			}
			triples = st.Subject(canonical)
		} else {
			triples = st.All()
		}
		if len(triples) > limit {
			triples = triples[:limit]
		}
		for _, t := range triples {
			fmt.Fprintln(out, t)
		}
	}
	if dataset {
		did = true
		for _, ds := range suite.Datasets() {
			fmt.Fprintf(out, "%s (%s, %d questions)\n", ds.Name, ds.Metric, len(ds.Questions))
			n := 3
			if n > len(ds.Questions) {
				n = len(ds.Questions)
			}
			for _, q := range ds.Questions[:n] {
				fmt.Fprintf(out, "  Q: %s\n", q.Text)
				if q.Open() {
					fmt.Fprintf(out, "  ref[0]: %.120s...\n", q.Refs[0])
				} else {
					fmt.Fprintf(out, "  gold: %v\n", q.Golds)
				}
			}
			fmt.Fprintln(out)
		}
	}
	if o.export != "" {
		did = true
		src, err := kg.ParseSource(o.export)
		if err != nil {
			return err
		}
		if err := stores[src].WriteJSON(out); err != nil {
			return err
		}
	}
	if o.exportNT != "" {
		did = true
		src, err := kg.ParseSource(o.exportNT)
		if err != nil {
			return err
		}
		if err := stores[src].WriteNT(out); err != nil {
			return err
		}
	}
	if o.exportDS != "" {
		did = true
		var ds *qa.Dataset
		switch o.exportDS {
		case "simple":
			ds = suite.Simple
		case "qald":
			ds = suite.QALD
		case "nature":
			ds = suite.Nature
		default:
			return fmt.Errorf("unknown dataset %q (want simple|qald|nature)", o.exportDS)
		}
		if err := datasets.WriteJSON(out, ds); err != nil {
			return err
		}
	}
	if o.exportWorld {
		did = true
		if err := w.WriteJSON(out); err != nil {
			return err
		}
	}
	if !did {
		return fmt.Errorf("nothing to do: pass -stats, -dump, -datasets, or an -export flag")
	}
	return nil
}
