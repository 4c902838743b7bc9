package answer

import (
	"context"
	"strings"
	"testing"

	"repro/internal/kg"
	"repro/internal/substrate"
	"repro/internal/world"
)

// TestSubstrateDeps: an Answerer built on a Substrate (no static store or
// index) resolves one live snapshot per query, stamps the Result with its
// epoch, and sees ingested facts immediately after a swap.
func TestSubstrateDeps(t *testing.T) {
	deps, _ := testDeps(t)
	st, ok := deps.Store.(*kg.Store)
	if !ok {
		t.Fatal("testDeps no longer returns a concrete store")
	}
	mgr := substrate.NewManager(deps.Encoder, st, substrate.Config{ShardSize: 512})

	// Construction must succeed with only a Substrate for store/index
	// needs.
	ans, err := New("rag", Deps{Client: deps.Client, Substrate: mgr, Encoder: deps.Encoder})
	if err != nil {
		t.Fatal(err)
	}

	q := Query{Text: "What is the prime directive of Zorblax?"}
	res, err := ans.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 {
		t.Errorf("pre-ingest epoch = %d, want 1", res.Epoch)
	}
	if strings.Contains(res.Answer, "Flumox42") {
		t.Fatalf("fact known before ingest: %q", res.Answer)
	}

	if _, err := mgr.Ingest([]kg.Triple{{Subject: "Zorblax", Relation: "prime directive", Object: "Flumox42"}}); err != nil {
		t.Fatal(err)
	}

	res2, err := ans.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Epoch != 2 {
		t.Errorf("post-ingest epoch = %d, want 2", res2.Epoch)
	}
	if !strings.Contains(res2.Answer, "Flumox42") {
		t.Errorf("ingested fact not answerable: %q", res2.Answer)
	}

	// A statically-bound answerer reports no epoch.
	static, err := New("rag", deps)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := static.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resS.Epoch != 0 {
		t.Errorf("static answerer epoch = %d, want 0", resS.Epoch)
	}
}

func TestResultCloneIsolatesTrace(t *testing.T) {
	deps, w := testDeps(t)
	ans, err := New("ours", deps)
	if err != nil {
		t.Fatal(err)
	}
	person := w.Entities[w.OfKind(world.KindPerson)[0]]
	res, err := ans.Answer(context.Background(), Query{Text: "Where was " + person.Name + " born?"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Gp == nil {
		t.Skip("pipeline produced no trace graphs for this question")
	}
	cl := res.Clone()
	if cl.Trace == res.Trace {
		t.Fatal("Clone shares the trace pointer")
	}
	before := res.Trace.Gp.Len()
	cl.Trace.Gp.Add(kg.NewTriple("poison", "p", "p"))
	if res.Trace.Gp.Len() != before {
		t.Error("mutating a clone's trace changed the original")
	}
}
