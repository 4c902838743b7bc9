package node

import (
	"testing"

	"repro/internal/kg"
)

// quickNode is a small node for substrate plumbing tests.
func quickNode(t *testing.T) *Node {
	t.Helper()
	n, err := New(ConfigFor(true))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestUnknownSourceIsErrorNotPanic: a source with no substrate must fail
// with an error from both Answerer and Pipeline — a nil *Manager stored
// into the Substrate interface field would pass the registry's nil check
// and panic at first Resolve instead.
func TestUnknownSourceIsErrorNotPanic(t *testing.T) {
	env := quickNode(t)
	if _, err := env.Answerer("ours", ModelGPT35, kg.SourceUnknown); err == nil {
		t.Error("Answerer accepted a source with no substrate")
	}
	if _, err := env.Pipeline(ModelGPT35, kg.SourceUnknown); err == nil {
		t.Error("Pipeline accepted a source with no substrate")
	}
}

// TestPipelineCacheFollowsEpoch: Node.Pipeline hands back the cached
// pipeline while the snapshot is unchanged, rebuilds it after a swap, and
// keeps the map bounded at one entry per (model, source).
func TestPipelineCacheFollowsEpoch(t *testing.T) {
	env := quickNode(t)
	p1, err := env.Pipeline(ModelGPT35, kg.SourceWikidata)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := env.Pipeline(ModelGPT35, kg.SourceWikidata)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same epoch should reuse the cached pipeline")
	}

	if _, err := env.Substrates[kg.SourceWikidata].Ingest([]kg.Triple{
		{Subject: "Zorblax", Relation: "prime directive", Object: "Flumox"},
	}); err != nil {
		t.Fatal(err)
	}
	p3, err := env.Pipeline(ModelGPT35, kg.SourceWikidata)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("epoch bump should rebuild the pipeline over the new snapshot")
	}
	env.pipeMu.Lock()
	n := len(env.pipelines)
	env.pipeMu.Unlock()
	if n != 1 {
		t.Errorf("pipeline cache holds %d entries, want 1 (old epochs must be replaced)", n)
	}
}
