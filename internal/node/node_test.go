package node

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/answer"
	"repro/internal/kg"
	"repro/internal/serve"
	"repro/internal/world"
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
// with an error from Answerer — a nil *Manager stored into the Substrate
// interface field would pass the registry's nil check and panic at first
// Resolve instead.
func TestUnknownSourceIsErrorNotPanic(t *testing.T) {
	env := quickNode(t)
	if _, err := env.Answerer("ours", ModelGPT35, kg.SourceUnknown); err == nil {
		t.Error("Answerer accepted a source with no substrate")
	}
}

// TestUnknownModelIsError: a model the node does not serve fails at
// Answerer, before any query runs.
func TestUnknownModelIsError(t *testing.T) {
	env := quickNode(t)
	if _, err := env.Answerer("ours", "no-such-model", kg.SourceWikidata); err == nil {
		t.Error("Answerer accepted an unknown model")
	}
}

// TestTracelessEntriesRetainLittle: a cache filled by requests that will
// not read the trace holds answers, not runs. Real quick-world "ours"
// runs carry about 12 KB of graphs, hit lists and spans each; an entry
// filled under Info.OmitTrace must retain under 2 KB after GC.
func TestTracelessEntriesRetainLittle(t *testing.T) {
	cfg := ConfigFor(true)
	cfg.Cache = serve.CacheConfig{Size: 1024}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := n.Answerer("ours", ModelGPT35, kg.SourceWikidata)
	if err != nil {
		t.Fatal(err)
	}
	people := n.World.OfKind(world.KindPerson)
	const entries = 100
	if len(people) < entries {
		t.Fatalf("quick world has %d people, need %d", len(people), entries)
	}
	fill := func(omitTrace bool) {
		for _, id := range people[:entries] {
			ctx, info := serve.Attach(context.Background())
			info.OmitTrace = omitTrace
			if _, err := ans.Answer(ctx, answer.Query{Text: "Where was " + n.World.Entities[id].Name + " born?"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	// The first pass warms everything else a run leaves behind (embedding
	// memo, metrics slots, pipelines) with the cache out of the picture:
	// full entries under keys the second pass never touches.
	fill(false)
	full := n.Cache.Len()
	before := heap()
	fill(true)
	perEntry := (heap() - before) / entries
	if got := n.Cache.Len() - full; got != entries {
		t.Fatalf("second pass added %d entries, want %d", got, entries)
	}
	if perEntry >= 2048 {
		t.Fatalf("a trace-less entry retains %d bytes, want < 2048", perEntry)
	}
	t.Logf("trace-less entry: %d bytes retained", perEntry)
}

// story renders what a run answered and how it got there: the answer,
// epoch and prompt versions and, when the trace is shown, its graphs, the
// retrieved hits with their score bits, the kept subjects with their
// confidence bits and the stage names.
func story(res answer.Result, withTrace bool) string {
	var b strings.Builder
	versions := make([]string, 0, len(res.PromptVersions))
	for name, v := range res.PromptVersions {
		versions = append(versions, name+"@"+v)
	}
	sort.Strings(versions)
	fmt.Fprintf(&b, "answer %q epoch %d prompts %v\n", res.Answer, res.Epoch, versions)
	if !withTrace {
		return b.String()
	}
	tr := res.Trace
	fmt.Fprintf(&b, "gp %q\ngg %q\ngf %q\n", tr.Gp.Strings(), tr.Gg.Strings(), tr.Gf.Strings())
	for _, h := range tr.Gt {
		fmt.Fprintf(&b, "gt %v %x\n", h.Triple, math.Float64bits(h.Score))
	}
	for _, k := range tr.Kept {
		fmt.Fprintf(&b, "kept %s %x\n", k.Subject, math.Float64bits(k.Confidence))
	}
	for _, sp := range tr.Stages {
		fmt.Fprintf(&b, "stage %s\n", sp.Stage)
	}
	return b.String()
}
