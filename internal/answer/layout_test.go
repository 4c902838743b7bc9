package answer

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/substrate"
	"repro/internal/vecstore"
	"repro/internal/world"
)

// poolTriples loads the pseudo-triples the vecstore tests search with:
// Gp lines captured from real pipeline runs over the quick world.
func poolTriples(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("../vecstore/testdata/pseudo_triples.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLayoutsAgreeAtOneEpoch is the cross-node differential for "an epoch
// means identical content": three managers hold one triple set at one
// epoch, reached by three histories —
//
//   - a primary that ingested every batch;
//   - a manager recovered from the primary's data directory: a
//     checkpoint's triples, then the WAL tail replayed;
//   - a replica that applied the primary's records and ran an
//     epoch-frozen compaction part way through —
//
// and every pool pseudo-triple's search, alone and in batches, returns the
// same hits, score bits and order on all three, and the read logs of the
// primary's cached answers replay exactly on the other two.
func TestLayoutsAgreeAtOneEpoch(t *testing.T) {
	wcfg := world.DefaultConfig()
	wcfg.People, wcfg.Cities, wcfg.Works, wcfg.Companies, wcfg.Universities = 150, 60, 100, 40, 25
	w, err := world.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	seed := func() *kg.Store { return world.WikidataSchema().Render(w) }
	enc := embed.NewEncoder()
	const shardSize = 256
	dir := t.TempDir()
	primary, err := substrate.Recover(enc, seed(), substrate.Config{
		ShardSize:  shardSize,
		Durability: substrate.Durability{Dir: dir, Fsync: substrate.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	sub, cancel := primary.SubscribeWAL(256)
	defer cancel()

	// Twelve batches, each holding a fact about a person asked below, a
	// fact whose subject is the lower-cased name of a person asked below
	// (a subject of its own that folds onto a seed subject), an unrelated
	// one, and per pool fact a newer value, which shares tokens with the
	// query, and a misspelling, which shares none but scores high on its
	// character trigrams: a block that filters drops it, one scanned whole
	// may rank it.
	pool := poolTriples(t)
	people := w.OfKind(world.KindPerson)
	misspell := func(s string) string { return strings.ReplaceAll(s, " ", "q ") + "q" }
	for b := range 12 {
		batch := []kg.Triple{
			kg.NewTriple(w.Entities[people[b%4]].Name, "nickname", fmt.Sprintf("Zed %d", b)),
			kg.NewTriple(strings.ToLower(w.Entities[people[b%8]].Name), "nickname", fmt.Sprintf("zed %d", b)),
			kg.NewTriple(fmt.Sprintf("Zorblax %d", b), "prime directive", "Flumox"),
		}
		for j := b; j < len(pool); j += 12 {
			f := strings.Split(strings.Trim(pool[j], "<>"), "> <")
			batch = append(batch,
				kg.NewTriple(f[0], f[1], fmt.Sprintf("%s %d", f[2], b)),
				kg.NewTriple(misspell(f[0]), misspell(f[1]), misspell(f[2])))
		}
		if _, err := primary.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if b == 5 {
			if _, err := primary.Checkpoint(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}

	var records []substrate.WALRecord
	for len(sub.C) > 0 {
		records = append(records, <-sub.C)
	}
	replica := substrate.NewManager(enc, seed(), substrate.Config{ShardSize: shardSize, Replica: true})
	for i, rec := range records {
		if _, err := replica.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			if _, err := replica.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A replica-mode recovery resumes at exactly the persisted epoch, so
	// it serves the primary's last epoch; it writes nothing to the
	// directory.
	recovered, err := substrate.Recover(enc, seed(), substrate.Config{
		ShardSize:  shardSize,
		Durability: substrate.Durability{Dir: dir, Fsync: substrate.SyncNever},
		Replica:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	nodes := map[string]*substrate.Manager{"recovered": recovered, "replica": replica}
	want := primary.Current()
	for name, m := range nodes {
		got := m.Current()
		if got.Epoch != want.Epoch || got.Store.Len() != want.Store.Len() {
			t.Fatalf("%s: epoch %d with %d triples, the primary %d with %d", name, got.Epoch, got.Store.Len(), want.Epoch, want.Store.Len())
		}
		if got.BaseTriples == want.BaseTriples {
			t.Fatalf("%s: a base of %d rows, as the primary's: the histories do not differ", name, got.BaseTriples)
		}
	}

	same := func(what string, got, want []vecstore.Hit) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d hits, the primary %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Triple != want[i].Triple || got[i].Score != want[i].Score {
				t.Fatalf("%s: hit %d is %v (%v), the primary's %v (%v)", what, i, got[i].Triple, got[i].Score, want[i].Triple, want[i].Score)
			}
		}
	}
	for _, k := range []int{1, 10, 40} {
		for lo := 0; lo < len(pool); lo += 4 {
			batch := pool[lo:min(lo+4, len(pool))]
			ref := want.Index.BatchSearchWith(enc.Encode, batch, k)
			for name, m := range nodes {
				index := m.Current().Index
				for i, hits := range index.BatchSearchWith(enc.Encode, batch, k) {
					what := fmt.Sprintf("%s k=%d %q", name, k, batch[i])
					same(what, hits, ref[i])
					same(what+" alone", index.BatchSearchWith(enc.Encode, batch[i:i+1], k)[0], ref[i])
				}
			}
		}
	}

	// The atomic KG reads of every person asked, by their name and its
	// case variants: the lower-cased name is a subject itself, so it
	// resolves to itself, and the others resolve as one store of the
	// triple set would resolve them, whatever part of it a node holds in
	// its checkpoint, its compacted base or its tail.
	kgReads := func(r kg.Reader, s string, relations []string) string {
		c, ok := r.FindSubjectFold(s)
		out := fmt.Sprint(c, ok, r.Subject(s), r.HasSubject(s))
		for _, rel := range relations {
			out += fmt.Sprint(r.SubjectRelation(s, rel))
		}
		return out
	}
	mismatches := 0
	for i := range 8 {
		name := w.Entities[people[i]].Name
		relations := []string{"nickname"}
		for _, tr := range want.Store.Subject(name) {
			relations = append(relations, tr.Relation)
		}
		for _, s := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			ref := kgReads(want.Store, s, relations)
			for name, m := range nodes {
				if got := kgReads(m.Current().Store, s, relations); got != ref {
					mismatches++
					t.Errorf("%s: the KG reads of %q differ from the primary's:\n got %s\nwant %s", name, s, got, ref)
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d KG read mismatches over %d probes", mismatches, 8*3)
	}

	ans, err := New("ours", Deps{Client: llm.NewSim(w, llm.GPT35Params(), 42), Substrate: primary, Encoder: enc})
	if err != nil {
		t.Fatal(err)
	}
	// One question names its person lower-cased, the subject the first
	// batch ingested: its read log resolves that subject.
	for i := range 9 {
		q := Query{Text: "Where was " + w.Entities[people[i%8]].Name + " born?"}
		if i == 8 {
			q.Text = "Where was " + strings.ToLower(w.Entities[people[0]].Name) + " born?"
		}
		reads := logged(t, ans, q)
		if reads == nil {
			t.Fatalf("%q: the run returned no read log", q.Text)
		}
		for name, m := range nodes {
			elsewhere := *reads
			elsewhere.substrate = m
			if _, ok := elsewhere.Revalidate(q, vecstore.Token{}); !ok {
				t.Fatalf("%q: the primary's read log does not replay on the %s", q.Text, name)
			}
		}
	}
}
