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
	"repro/internal/failure"
	"repro/internal/kg"
	"repro/internal/racedetect"
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

// TestResolveModel: the one label table both binaries use folds case and
// spelling, and refuses a label it does not know as an invalid query
// instead of falling back to another model.
func TestResolveModel(t *testing.T) {
	for label, want := range map[string]string{
		"": ModelGPT35, "gpt3.5": ModelGPT35, "GPT-3.5": ModelGPT35, " gpt35 ": ModelGPT35,
		"gpt4": ModelGPT4, "GPT4": ModelGPT4, "Gpt-4": ModelGPT4,
	} {
		if got, err := ResolveModel(label); err != nil || got != want {
			t.Errorf("ResolveModel(%q) = %q, %v; want %q", label, got, err, want)
		}
	}
	for _, label := range []string{"gpt5", "gpt-4o", "llama", "gpt 4"} {
		_, err := ResolveModel(label)
		if failure.Of(err) != failure.InvalidQuery {
			t.Errorf("ResolveModel(%q) = %v, want an invalid-query error", label, err)
		}
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

	// The first pass warms everything else a run leaves behind (metrics
	// slots, answerers) with the cache out of the picture: full entries
	// under keys the second pass never touches.
	fill(false)
	full := n.Cache.Len()
	before := liveHeap()
	fill(true)
	perEntry := (liveHeap() - before) / entries
	if got := n.Cache.Len() - full; got != entries {
		t.Fatalf("second pass added %d entries, want %d", got, entries)
	}
	if perEntry >= 2048 {
		t.Fatalf("a trace-less entry retains %d bytes, want < 2048", perEntry)
	}
	t.Logf("trace-less entry: %d bytes retained", perEntry)
}

// perQueryStateBound bounds the live-heap growth over the questions of
// TestAnswersLeaveNoPerQueryState, which measured −22 kB on linux/amd64
// with go1.24; the bound is a margin for the runtime's own books. A
// node-wide embedding memo, which kept the vector of every pseudo-triple
// the node encoded, grew it by 1.49 MB.
const perQueryStateBound = 256 << 10

// TestAnswersLeaveNoPerQueryState: below the answer cache nothing a run
// computes outlives it. A cache-off node answers a few hundred distinct
// questions over both KGs after a warm-up over other questions; the live
// heap after GC must not grow with them.
func TestAnswersLeaveNoPerQueryState(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	cfg := ConfigFor(true)
	cfg.Cache = serve.CacheConfig{Size: 0}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var questions []string
	for _, id := range n.World.OfKind(world.KindPerson) {
		name := n.World.Entities[id].Name
		questions = append(questions, "Where was "+name+" born?", "What is the occupation of "+name+"?")
	}
	for _, id := range n.World.OfKind(world.KindCity) {
		questions = append(questions, "What is the population of "+n.World.Entities[id].Name+"?")
	}
	const warm = 20
	ask := func(qs []string) {
		for _, model := range []string{ModelGPT35, ModelGPT4} {
			for _, src := range Sources {
				ans, err := n.Answerer("ours", model, src)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range qs {
					if _, err := ans.Answer(context.Background(), answer.Query{Text: q}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	ask(questions[:warm])
	before := liveHeap()
	ask(questions[warm:])
	growth := liveHeap() - before
	t.Logf("%d questions, 2 models, %d sources: live heap grew %d bytes", len(questions)-warm, len(Sources), growth)
	if growth > perQueryStateBound {
		t.Fatalf("answering left %d bytes live, want at most %d", growth, perQueryStateBound)
	}
}

// liveHeap is the heap in use after the collector has run to completion.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
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

// unknownEntityAllocs is what one "ours" answer about an entity the
// quick world lacks allocates, cache off (measured). A subject lookup
// that lower-cased every entity name would add thousands; an Encode that
// allocated its tokens, as Tokenize does, would add 28.
const unknownEntityAllocs = 316

// TestUnknownEntityAnswerAllocations pins the allocations of an answer
// whose subject no entity is named, in any case: the simulated model
// resolves such a name through the world's fold map, where it once
// lower-cased every entity name per lookup.
func TestUnknownEntityAnswerAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	cfg := ConfigFor(true)
	cfg.Cache = serve.CacheConfig{Size: 0}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ans, err := n.Answerer("ours", ModelGPT35, kg.SourceWikidata)
	if err != nil {
		t.Fatal(err)
	}
	q := answer.Query{Text: "Where was Zorblax Quintavius born?"}
	run := func() {
		if _, err := ans.Answer(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(20, run); got > unknownEntityAllocs {
		t.Fatalf("an answer about an unknown entity allocates %.0f times, want at most %d", got, unknownEntityAllocs)
	}
}
