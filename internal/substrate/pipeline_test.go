package substrate

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/kg"
)

// TestDeltaTriplesReachGoldGraph runs the pipeline's semantic query +
// pruning steps against a live snapshot: a fact that was only ingested
// must be retrieved into Gt and assembled into Gg, proving the
// whole AKV path sees ingested knowledge without a rebuild.
func TestDeltaTriplesReachGoldGraph(t *testing.T) {
	m := newTestManager(t, 25, Config{ShardSize: 8})
	if _, err := m.Ingest([]kg.Triple{
		{Subject: "Zorblax", Relation: "prime directive", Object: "Flumox"},
		{Subject: "Zorblax", Relation: "homeworld", Object: "Kepler-42b"},
	}); err != nil {
		t.Fatal(err)
	}
	snap := m.Current()
	p, err := core.New(snap.Store, snap.Index, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The LLM hallucinated the directive's value; retrieval + pruning must
	// still anchor on the delta-resident subject and surface the truth.
	gp := kg.NewGraph(kg.NewTriple("Zorblax", "prime directive", "wrong guess"))
	var tr core.Trace
	gg := p.QueryAndPrune(gp, &tr)
	if !gg.ContainsSR("Zorblax", "prime directive") {
		t.Fatalf("Gg lacks the ingested fact:\n%s", gg)
	}
	if !gg.Contains(kg.NewTriple("Zorblax", "prime directive", "Flumox")) {
		t.Errorf("Gg has the subject but not the true object:\n%s", gg)
	}
	if len(tr.Kept) == 0 || tr.Kept[0].Subject != "Zorblax" {
		t.Errorf("kept = %v", tr.Kept)
	}

	// After compaction the same query runs against the folded base.
	if _, err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap2 := m.Current()
	p2, err := core.New(snap2.Store, snap2.Index, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if gg2 := p2.QueryAndPrune(gp, nil); !gg2.Contains(kg.NewTriple("Zorblax", "prime directive", "Flumox")) {
		t.Errorf("post-compaction Gg lost the fact:\n%s", gg2)
	}
}
