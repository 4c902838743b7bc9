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
	"os"

	"repro/internal/bench"
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

	if err := run(opts{*stats, *dump, *subject, *limit, *dataset, *export, *exportNT, *exportDS, *exportWorld, *quick, *seed}); err != nil {
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

func run(o opts) error {
	stats, dump, subject, limit, dataset, quick, seed :=
		o.stats, o.dump, o.subject, o.limit, o.dataset, o.quick, o.seed
	cfg := bench.DefaultEnvConfig()
	if quick {
		cfg = bench.QuickEnvConfig()
	}
	cfg.WorldSeed = seed
	env, err := bench.NewEnv(cfg)
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
		stores[src] = schema.Render(env.World)
	}

	did := false
	if stats {
		did = true
		fmt.Println(env.World.Stats())
		s := env.World.Stats()
		for kind, n := range s.ByKind {
			fmt.Printf("  %-16s %d\n", kind, n)
		}
		for src, st := range stores {
			fmt.Printf("KG[%s]: %s\n", src, st.Stats())
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
			fmt.Println(t)
		}
	}
	if dataset {
		did = true
		for _, ds := range env.Suite.Datasets() {
			fmt.Printf("%s (%s, %d questions)\n", ds.Name, ds.Metric, len(ds.Questions))
			n := 3
			if n > len(ds.Questions) {
				n = len(ds.Questions)
			}
			for _, q := range ds.Questions[:n] {
				fmt.Printf("  Q: %s\n", q.Text)
				if q.Open() {
					fmt.Printf("  ref[0]: %.120s...\n", q.Refs[0])
				} else {
					fmt.Printf("  gold: %v\n", q.Golds)
				}
			}
			fmt.Println()
		}
	}
	if o.export != "" {
		did = true
		src, err := kg.ParseSource(o.export)
		if err != nil {
			return err
		}
		if err := stores[src].WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	if o.exportNT != "" {
		did = true
		src, err := kg.ParseSource(o.exportNT)
		if err != nil {
			return err
		}
		if err := stores[src].WriteNT(os.Stdout); err != nil {
			return err
		}
	}
	if o.exportDS != "" {
		did = true
		var ds *qa.Dataset
		switch o.exportDS {
		case "simple":
			ds = env.Suite.Simple
		case "qald":
			ds = env.Suite.QALD
		case "nature":
			ds = env.Suite.Nature
		default:
			return fmt.Errorf("unknown dataset %q (want simple|qald|nature)", o.exportDS)
		}
		if err := datasets.WriteJSON(os.Stdout, ds); err != nil {
			return err
		}
	}
	if o.exportWorld {
		did = true
		if err := env.World.WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	if !did {
		return fmt.Errorf("nothing to do: pass -stats, -dump, -datasets, or an -export flag")
	}
	return nil
}
