package node

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/answer"
	"repro/internal/datasets"
	"repro/internal/kg"
	"repro/internal/serve"
	"repro/internal/world"
)

// pair is a cache-on and a cache-off node over the same world, driven
// through identical schedules: the cache-off node's replies are the truth
// the cache-on node's must equal.
type pair struct {
	on, off *Node
}

func newPair(t *testing.T, cacheSize int) pair {
	t.Helper()
	var p pair
	for _, size := range []int{cacheSize, 0} {
		cfg := ConfigFor(true)
		cfg.Substrate.ShardSize = 256 // several blocks
		cfg.Cache = serve.CacheConfig{Size: size}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		if size > 0 {
			p.on = n
		} else {
			p.off = n
		}
	}
	return p
}

// each applies one state change to both nodes.
func (p pair) each(t *testing.T, f func(n *Node) error) {
	t.Helper()
	for _, n := range []*Node{p.on, p.off} {
		if err := f(n); err != nil {
			t.Fatal(err)
		}
	}
}

func (p pair) ingest(t *testing.T, src kg.Source, triples ...kg.Triple) {
	t.Helper()
	p.each(t, func(n *Node) error { _, err := n.Substrates[src].Ingest(triples); return err })
}

// ask answers one request on n the way the front door does: Info attached,
// OmitTrace unless the trace is wanted.
func ask(t *testing.T, n *Node, method string, src kg.Source, q answer.Query, withTrace bool) (answer.Result, *serve.Info) {
	t.Helper()
	ans, err := n.Answerer(method, ModelGPT35, src)
	if err != nil {
		t.Fatal(err)
	}
	ctx, info := serve.Attach(context.Background())
	info.OmitTrace = !withTrace
	res, err := ans.Answer(ctx, q)
	if err != nil {
		t.Fatalf("%s %q on %s: %v", method, q.Text, src, err)
	}
	return res, info
}

// same asks both nodes and fails unless what a client sees of the replies
// is identical. It returns the cache-on node's Info.
func (p pair) same(t *testing.T, method string, src kg.Source, q answer.Query, withTrace bool) *serve.Info {
	t.Helper()
	on, info := ask(t, p.on, method, src, q, withTrace)
	off, _ := ask(t, p.off, method, src, q, withTrace)
	if got, want := story(on, withTrace), story(off, withTrace); got != want {
		t.Fatalf("%s %q on %s (hit %v): cache-on node replied\n%s\ncache-off node replied\n%s", method, q.Text, src, info.CacheHit, got, want)
	}
	return info
}

// request is one question of a schedule.
type request struct {
	method string
	src    kg.Source
	q      answer.Query
}

// requests is the question set the differential draws from: the pipeline
// and RAG on both sources, ToG with an anchor, CoT.
func requests(w *world.World) []request {
	var out []request
	people, cities := w.OfKind(world.KindPerson), w.OfKind(world.KindCity)
	for i := 0; i < 6; i++ {
		person, city := w.Entities[people[i]].Name, w.Entities[cities[i]].Name
		born := answer.Query{Text: "Where was " + person + " born?"}
		pop := answer.Query{Text: "What is the population of " + city + "?"}
		for _, src := range Sources {
			out = append(out, request{"ours", src, born}, request{"ours", src, pop}, request{"rag", src, born})
		}
		out = append(out,
			request{"tog", kg.SourceWikidata, answer.Query{Text: born.Text, Anchors: []string{person}}},
			request{"cot", kg.SourceWikidata, pop})
	}
	return out
}

// TestRevalidationMatchesCacheOff is the differential proof that
// revalidation is exact: a cache-on and a cache-off node run the same
// seeded schedules — questions on ours, rag, tog and cot with and without
// a trace, unrelated ingests, ingests touching asked subjects,
// compactions and prompt swaps — and every reply is identical: answer,
// epoch, prompt versions and, where shown, the trace's graphs and hits.
// The schedules must both revalidate entries and refuse some, and
// revalidate both incrementally (a run that searched the index: its fill
// carries the searched view's token, so each replay searches only the
// rows added since the view it last matched, across compactions too) and
// in full (the first replay
// of a run that made no search — cot, tog, or a pipeline run that planned
// none).
func TestRevalidationMatchesCacheOff(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			p := newPair(t, 4096)
			rng := rand.New(rand.NewSource(seed))
			reqs := requests(p.on.World)
			people := p.on.World.OfKind(world.KindPerson)
			version := 1
			for round := 0; round < 8; round++ {
				for _, i := range rng.Perm(len(reqs))[:len(reqs)*2/3] {
					r := reqs[i]
					p.same(t, r.method, r.src, r.q, rng.Intn(2) == 0)
				}
				switch event := rng.Intn(5); event {
				case 0, 1: // unrelated
					p.ingest(t, kg.SourceWikidata, kg.NewTriple(fmt.Sprintf("Zorblax %d-%d", seed, round), "prime directive", "Flumox"))
				case 2: // touches an asked subject
					person := p.on.World.Entities[people[rng.Intn(6)]].Name
					p.ingest(t, kg.SourceWikidata, kg.NewTriple(person, "nickname", fmt.Sprintf("Zed %d", round)))
				case 3:
					p.each(t, func(n *Node) error {
						_, err := n.Substrates[kg.SourceWikidata].Compact(context.Background())
						return err
					})
				case 4:
					version = 3 - version
					p.each(t, func(n *Node) error { return n.Prompts.SetActive("answer-graph", version) })
				}
			}
			st := p.on.Cache.Stats()
			if st.Revalidated == 0 || st.StaleMisses == 0 {
				t.Fatalf("the schedule never exercised both outcomes: %+v", st)
			}
			if st.RevalidatedIncremental == 0 || st.RevalidatedIncremental == st.Revalidated {
				t.Fatalf("the schedule never exercised both incremental and full revalidation: %+v", st)
			}
			t.Logf("cache: %+v", st)
		})
	}
}

// TestFirstRevalidationIsIncremental: a fill carries the token of the
// index view its run searched, so the first re-ask after an unrelated
// ingest searches only the rows that ingest added — one incremental
// revalidation — and answers what the cache-off node answers.
func TestFirstRevalidationIsIncremental(t *testing.T) {
	p := newPair(t, 64)
	person := p.on.World.Entities[p.on.World.OfKind(world.KindPerson)[2]].Name
	q := answer.Query{Text: "Where was " + person + " born?"}
	for i, method := range []string{"ours", "rag"} {
		p.same(t, method, kg.SourceWikidata, q, false)
		p.ingest(t, kg.SourceWikidata, kg.NewTriple(fmt.Sprint("Zorblax ", i), "prime directive", "Flumox"))
		before := p.on.Cache.Stats()
		if info := p.same(t, method, kg.SourceWikidata, q, false); !info.CacheHit {
			t.Fatalf("%s: the re-ask after an unrelated ingest missed", method)
		}
		after := p.on.Cache.Stats()
		if after.Revalidated-before.Revalidated != 1 || after.RevalidatedIncremental-before.RevalidatedIncremental != 1 {
			t.Fatalf("%s: cache %+v after the re-ask, %+v before; want one revalidation, incremental", method, after, before)
		}
	}
}

// TestRevalidationRefusesChangedReads: each kind of read the pipeline and
// ToG make, flipped by an ingest or a prompt swap, forces a miss — and the
// re-run answers what the cache-off node answers.
func TestRevalidationRefusesChangedReads(t *testing.T) {
	p := newPair(t, 256)
	w := p.on.World
	person := w.Entities[w.OfKind(world.KindPerson)[1]].Name
	born := answer.Query{Text: "Where was " + person + " born?"}
	tog := answer.Query{Text: born.Text, Anchors: []string{person}}
	unknown := answer.Query{Text: born.Text, Anchors: []string{"zorblax"}}
	wiki := kg.SourceWikidata

	// refused warms the entry, applies change, and requires a stale miss
	// whose run matches the cache-off node.
	refused := func(name, method string, q answer.Query, change func(first answer.Result)) {
		t.Helper()
		first, _ := ask(t, p.on, method, wiki, q, true)
		if info := p.same(t, method, wiki, q, true); !info.CacheHit {
			t.Fatalf("%s: the warm entry missed", name)
		}
		stale := p.on.Cache.Stats().StaleMisses
		change(first)
		if info := p.same(t, method, wiki, q, true); info.CacheHit {
			t.Fatalf("%s: served from the cache after the read changed", name)
		}
		if got := p.on.Cache.Stats().StaleMisses - stale; got != 1 {
			t.Fatalf("%s: %d stale misses, want 1", name, got)
		}
	}
	refused("kept subject", "ours", born, func(first answer.Result) {
		if len(first.Trace.Kept) == 0 {
			t.Fatal("the run kept no subject")
		}
		p.ingest(t, wiki, kg.NewTriple(first.Trace.Kept[0].Subject, "zq marker", "zq value"))
	})
	refused("top-k entry", "ours", born, func(first answer.Result) {
		if first.Trace.Gp.Len() == 0 {
			t.Fatal("the run planned no pseudo-triple")
		}
		// A new subject whose text is a pseudo-triple's plus one token: it
		// enters that query's top-k and no subject block or probe sees it.
		pt := first.Trace.Gp.Triples[0]
		p.ingest(t, wiki, kg.NewTriple("Zq "+pt.Subject, pt.Relation, pt.Object))
	})
	refused("probed object", "ours", born, func(first answer.Result) {
		store := p.on.Substrates[wiki].Current().Store
		for _, sc := range first.Trace.Kept {
			for _, gt := range first.Trace.Gg.Triples {
				// Every triple of a kept subject's block had its object
				// probed with HasSubject.
				if gt.Subject == sc.Subject && !store.HasSubject(gt.Object) {
					p.ingest(t, wiki, kg.NewTriple(gt.Object, "zq marker", "zq value"))
					return
				}
			}
		}
		t.Fatal("every probed object is already a subject")
	})
	refused("ToG relation", "tog", tog, func(first answer.Result) {
		if first.Trace == nil {
			t.Fatal("no trace")
		}
		explored := p.on.Substrates[wiki].Current().Store.Subject(person)
		p.ingest(t, wiki, kg.NewTriple(person, explored[0].Relation, "Zq Elsewhere"))
	})
	refused("ToG fold", "tog", unknown, func(answer.Result) {
		p.ingest(t, wiki, kg.NewTriple("Zorblax", "prime directive", "Flumox"))
	})
	refused("prompt swap", "ours", born, func(answer.Result) {
		p.each(t, func(n *Node) error { return n.Prompts.SetActive("answer-graph", 2) })
	})
}

// TestRevalidatedCacheEvictsNothing: each key holds one entry, so an
// ingest replaces a key's entry instead of stranding a dead one beside it.
// A cache sized to the live keys plus 8 serves rounds of every question
// on both sources with ingests into wikidata between rounds: after the
// first round freebase, which never changes, runs no pipeline at all and
// nothing is ever evicted. (With epoch-keyed entries the stranded
// wikidata answers fill the cache and push freebase out by round 3.)
func TestRevalidatedCacheEvictsNothing(t *testing.T) {
	const perSource = 20
	cfg := ConfigFor(true)
	cfg.Cache = serve.CacheConfig{Size: 2*perSource + 8}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var questions []answer.Query
	for _, id := range n.World.OfKind(world.KindPerson)[:perSource] {
		questions = append(questions, answer.Query{Text: "Where was " + n.World.Entities[id].Name + " born?"})
	}
	for round := 0; round < 5; round++ {
		for _, src := range Sources {
			for _, q := range questions {
				_, info := ask(t, n, "ours", src, q, false)
				if round > 0 && src == kg.SourceFreebase && !info.CacheHit {
					t.Fatalf("round %d: freebase ran %q again", round, q.Text)
				}
			}
		}
		if ev := n.Cache.Stats().Evictions; ev != 0 {
			t.Fatalf("round %d: %d evictions", round, ev)
		}
		person := n.World.Entities[n.World.OfKind(world.KindPerson)[round]].Name
		if _, err := n.Substrates[kg.SourceWikidata].Ingest([]kg.Triple{
			kg.NewTriple(fmt.Sprintf("Zorblax %d", round), "prime directive", "Flumox"),
			kg.NewTriple(person, "nickname", fmt.Sprintf("Zed %d", round)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := n.Cache.Stats(); st.Size != 2*len(questions) {
		t.Fatalf("cache holds %d entries for %d keys: %+v", st.Size, 2*len(questions), st)
	}
}

// hotZipfRSSBudget is what read logs may add to a cache holding the
// benchmark's whole key set: a tenth of hot_zipf's ~62 MB peak RSS.
const hotZipfRSSBudget = 6_200_000

// TestRevalidationLogSize pins what a cache entry's read log costs on the
// default world: the median "ours" log over a sample of the benchmark's
// question pool on both sources is at most 3 KB, and the benchmark's 1 736
// keys' worth of them (plus their headers) fit hot_zipf's RSS budget.
func TestRevalidationLogSize(t *testing.T) {
	cfg := ConfigFor(false)
	cfg.Cache = serve.CacheConfig{Size: 4096}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	suite, err := datasets.Build(n.World, datasets.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var pool []answer.Query
	for _, ds := range suite.Datasets() {
		for _, q := range ds.Questions {
			if q := (answer.Query{Text: q.Text, Method: "ours", Model: ModelGPT35}); !seen[answer.QueryKey("ours", ModelGPT35, q)] {
				seen[answer.QueryKey("ours", ModelGPT35, q)] = true
				pool = append(pool, q)
			}
		}
	}
	var sizes []int
	total := 0
	for i := 0; i < len(pool); i += 4 {
		for _, src := range Sources {
			res, _ := ask(t, n, "ours", src, pool[i], false)
			if res.Reads == nil {
				t.Fatalf("%q on %s: the fill carries no read log", pool[i].Text, src)
			}
			sizes = append(sizes, res.Reads.Size())
			total += res.Reads.Size()
		}
	}
	slices.Sort(sizes)
	median, mean := sizes[len(sizes)/2], total/len(sizes)
	t.Logf("%d logs over a %d-question pool: median %d B, mean %d B, max %d B", len(sizes), len(pool), median, mean, sizes[len(sizes)-1])
	if median > 3072 {
		t.Errorf("median read log %d B, want <= 3072", median)
	}
	// 128 B per log covers the Reads header and allocation rounding.
	if perKey := mean + 128; 1736*perKey > hotZipfRSSBudget {
		t.Errorf("1736 logs of %d B exceed the %d B budget", perKey, hotZipfRSSBudget)
	}
}

// TestRevalidationRacesIngest runs readers through a cache-on node while a
// writer ingests related and unrelated triples and compacts: under -race
// this is the revalidation path racing snapshot swaps. Every reply succeeds
// and each reader sees epochs that never go backwards.
func TestRevalidationRacesIngest(t *testing.T) {
	cfg := ConfigFor(true)
	cfg.Cache = serve.CacheConfig{Size: 512}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	reqs := requests(n.World)
	people := n.World.OfKind(world.KindPerson)
	// The readers keep going until the writer is done, so every write
	// lands among reads. Before each write, and before it is done, the
	// writer waits for the readers to answer as many questions as there
	// are, so reads land among writes too: an ingest or a compaction can
	// cost less than the answers it should race.
	done := make(chan struct{})
	var answered atomic.Int64
	round := func() {
		target := answered.Load() + int64(len(reqs))
		for wait := time.Now().Add(10 * time.Second); answered.Load() < target && time.Now().Before(wait); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	go func() {
		defer close(done)
		defer round()
		mgr := n.Substrates[kg.SourceWikidata]
		for i := 0; i < 24; i++ {
			round()
			var err error
			switch i % 4 {
			case 0, 1:
				_, err = mgr.Ingest([]kg.Triple{kg.NewTriple(fmt.Sprintf("Zorblax %d", i), "prime directive", "Flumox")})
			case 2:
				_, err = mgr.Ingest([]kg.Triple{kg.NewTriple(n.World.Entities[people[i%6]].Name, "nickname", fmt.Sprintf("Zed %d", i))})
			case 3:
				_, err = mgr.Compact(context.Background())
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			ctx := context.Background()
			last := map[kg.Source]uint64{}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				r := reqs[(g*7+i)%len(reqs)]
				ans, err := n.Answerer(r.method, ModelGPT35, r.src)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := ans.Answer(ctx, r.q)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Epoch < last[r.src] {
					t.Errorf("reader %d: %s epoch %d after %d", g, r.src, res.Epoch, last[r.src])
					return
				}
				last[r.src] = res.Epoch
				answered.Add(1)
			}
		}(g)
	}
	readers.Wait()
	if st := n.Cache.Stats(); st.Revalidated == 0 || st.StaleMisses == 0 {
		t.Errorf("racing the writer exercised too little: %+v", st)
	}
}
