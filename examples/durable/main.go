// Durable substrate: wire a persistent substrate.Manager from library
// code — WAL + checkpoint under a data directory — ingest facts, crash
// (simulated by dropping the manager without Close), and recover them
// on the next boot with a non-regressed epoch.
//
//	go run ./examples/durable
//
// See docs/operations.md for the serving-layer equivalent (pgakvd's
// -data-dir / -fsync / -checkpoint-interval flags).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/substrate"
	"repro/internal/world"
)

func main() {
	dir := filepath.Join(os.TempDir(), "pgakv-durable-example")
	if err := os.RemoveAll(dir); err != nil {
		log.Fatal(err)
	}

	// The seed base: a deterministic rendered world, exactly what a boot
	// with no persisted state serves. Recover only uses it when the data
	// directory holds no checkpoint.
	seed := func() *kg.Store {
		cfg := world.DefaultConfig()
		cfg.People, cfg.Cities, cfg.Countries = 80, 30, 10
		cfg.Works, cfg.Companies, cfg.Universities = 50, 20, 12
		w, err := world.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return world.WikidataSchema().Render(w)
	}
	cfg := substrate.Config{
		ShardSize: 1024,
		Durability: substrate.Durability{
			Dir:   dir,
			Fsync: substrate.SyncAlways, // every acknowledged ingest survives kill -9
		},
	}
	enc := embed.NewEncoder()

	// Boot 1: fresh directory, so the manager starts from the seed.
	m1, err := substrate.Recover(enc, seed(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("boot 1: epoch %d, %d triples\n", m1.Epoch(), m1.Current().Store.Len())

	facts := []kg.Triple{
		{Subject: "Zorblax", Relation: "prime directive", Object: "Flumox42"},
		{Subject: "Zorblax", Relation: "homeworld", Object: "Kepler-42b"},
	}
	res, err := m1.Ingest(facts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d facts, epoch now %d\n", res.Added, res.Epoch)

	// Optional: persist a checkpoint explicitly (compaction and the
	// CheckpointInterval timer do this automatically in a server).
	info, err := m1.Checkpoint(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint at epoch %d: %d triples -> %s\n", info.Epoch, info.Triples, info.Path)

	// One more ingest AFTER the checkpoint: recovery must replay it from
	// the WAL tail.
	if _, err := m1.Ingest([]kg.Triple{
		{Subject: "Zorblax", Relation: "ambassador", Object: "Trelane"},
	}); err != nil {
		log.Fatal(err)
	}
	crashEpoch := m1.Epoch()
	fmt.Printf("crashing at epoch %d (no Close — the WAL already has everything)\n", crashEpoch)

	// Boot 2: same directory, same seed. Recovery = newest checkpoint +
	// WAL tail replay.
	m2, err := substrate.Recover(enc, seed(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	fmt.Printf("boot 2: epoch %d (>= %d), recovered checkpoint epoch %d (%d triples), replayed %d wal record(s)\n",
		m2.Epoch(), crashEpoch, rec.CheckpointEpoch, rec.CheckpointTriples, rec.ReplayedRecords)

	snap := m2.Current()
	for _, f := range append(facts, kg.Triple{Subject: "Zorblax", Relation: "ambassador", Object: "Trelane"}) {
		if !snap.Store.Contains(f) {
			log.Fatalf("recovered substrate lost %v", f)
		}
	}
	fmt.Println("\nall ingested facts survived; semantic search over the recovered index:")
	hits := snap.Index.BatchSearchWith(enc.Encode, []string{"Zorblax prime directive"}, 3)[0]
	for _, hit := range hits {
		fmt.Printf("  %.3f  %s\n", hit.Score, hit.Triple)
	}
}
