package answer

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/substrate"
	"repro/internal/vecstore"
)

// probeStore is a small KG where "Beta" and "Delta" occur only as objects
// and no subject folds to "omega".
func probeStore() *kg.Store {
	st := kg.NewStore(kg.SourceWikidata)
	st.AddAll([]kg.Triple{
		{Subject: "Alpha", Relation: "knows", Object: "Beta"},
		{Subject: "Alpha", Relation: "born in", Object: "Delta"},
		{Subject: "Alpha", Relation: "knows", Object: "Gamma"},
		{Subject: "Gamma", Relation: "knows", Object: "Beta"},
		{Subject: "Gamma", Relation: "born in", Object: "Delta"},
		{Subject: "Epsilon", Relation: "colour", Object: "green"},
	})
	return st
}

// probe is an Answerer whose run makes exactly the reads read makes and
// answers with a constant: the log is then all that decides revalidation.
// A nil reg renders from the shared defaults, as New picks them.
func probe(mgr *substrate.Manager, reg *prompts.Registry, read func(d Deps)) Answerer {
	if reg == nil {
		reg = prompts.Default()
	}
	return &method{
		reg: &registration{Name: "read-probe", Run: func(ctx context.Context, r *run) (string, *core.Trace, error) {
			read(Deps{Store: r.store, Index: r.index})
			return "ok", nil, nil
		}},
		deps: Deps{Client: llm.NewScripted(), Substrate: mgr, Prompts: reg},
		sub:  mgr,
	}
}

// logged runs ans once asking for its read log.
func logged(t *testing.T, ans Answerer, q Query) *Reads {
	t.Helper()
	res, err := ans.Answer(WithReadLog(context.Background()), q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Reads
}

// TestReadLogRevalidationPerRead: every kind of read is replayed exactly.
// For each one, an ingest that changes that read's result makes
// revalidation refuse, and an ingest that leaves it unchanged — even one
// touching the same subject — plus a compaction leaves it valid at the new
// epoch.
func TestReadLogRevalidationPerRead(t *testing.T) {
	enc := embed.NewEncoder()
	for _, tc := range []struct {
		name      string
		read      func(d Deps)
		unrelated kg.Triple
		related   kg.Triple
	}{
		{"Subject", func(d Deps) { d.Store.Subject("Alpha") },
			kg.NewTriple("Gamma", "colour", "red"), kg.NewTriple("Alpha", "colour", "red")},
		{"SubjectRelation", func(d Deps) { d.Store.SubjectRelation("Alpha", "knows") },
			kg.NewTriple("Alpha", "colour", "red"), kg.NewTriple("Alpha", "knows", "Epsilon")},
		{"HasSubject", func(d Deps) { d.Store.HasSubject("Beta") },
			kg.NewTriple("Gamma", "knows", "Delta"), kg.NewTriple("Beta", "colour", "red")},
		{"FindSubjectFold", func(d Deps) { d.Store.FindSubjectFold("omega") },
			kg.NewTriple("Gamma", "colour", "red"), kg.NewTriple("Omega", "colour", "red")},
		{"BatchSearchWith", func(d Deps) { d.Index.BatchSearchWith(enc.Encode, []string{"Gamma born in", "Alpha knows"}, 2) },
			kg.NewTriple("Zeta", "colour", "red"), kg.NewTriple("Gamma", "born in", "Gamma born in")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mgr := substrate.NewManager(enc, probeStore(), substrate.Config{})
			ans := probe(mgr, prompts.NewRegistry(), tc.read)
			reads := logged(t, ans, Query{Text: "q"})
			if reads == nil || reads.Size() == 0 {
				t.Fatal("the run returned no read log")
			}
			if rv, ok := reads.Revalidate(Query{Text: "q"}, vecstore.Token{}); !ok || rv.Epoch != 1 {
				t.Fatalf("unchanged substrate: revalidated %v at epoch %d", ok, rv.Epoch)
			}
			if tc.unrelated != (kg.Triple{}) {
				if _, err := mgr.Ingest([]kg.Triple{tc.unrelated}); err != nil {
					t.Fatal(err)
				}
				if _, err := mgr.Compact(context.Background()); err != nil {
					t.Fatal(err)
				}
				if rv, ok := reads.Revalidate(Query{Text: "q"}, vecstore.Token{}); !ok || rv.Epoch != mgr.Epoch() {
					t.Fatalf("after %v and a compaction: revalidated %v at epoch %d, want true at %d", tc.unrelated, ok, rv.Epoch, mgr.Epoch())
				}
			}
			if tc.related != (kg.Triple{}) {
				if _, err := mgr.Ingest([]kg.Triple{tc.related}); err != nil {
					t.Fatal(err)
				}
				if _, ok := reads.Revalidate(Query{Text: "q"}, vecstore.Token{}); ok {
					t.Fatalf("after %v the read changed, but the log revalidated", tc.related)
				}
			}
		})
	}
}

// TestReadLogUnreplayableReads: every read a method can make replays, so
// a log is missing only where nobody asked for one: without WithReadLog
// nothing is recorded at all.
func TestReadLogUnreplayableReads(t *testing.T) {
	mgr := substrate.NewManager(embed.NewEncoder(), probeStore(), substrate.Config{})
	res, err := probe(mgr, nil, func(d Deps) { d.Store.Subject("Alpha") }).Answer(context.Background(), Query{Text: "q"})
	if err != nil || res.Reads != nil {
		t.Fatalf("unasked run: reads %v, err %v", res.Reads, err)
	}
}

// TestReadLogChecksPromptView: the log holds the fingerprint of the view
// the run rendered with. A change of the active set refuses it; changing
// back accepts it again; a query's own version overrides are resolved
// against the registry as it is at revalidation.
func TestReadLogChecksPromptView(t *testing.T) {
	mgr := substrate.NewManager(embed.NewEncoder(), probeStore(), substrate.Config{})
	reg := prompts.NewRegistry()
	ans := probe(mgr, reg, func(d Deps) { d.Store.Subject("Alpha") })
	plain := Query{Text: "q"}
	pinned := Query{Text: "q", PromptVersions: map[string]string{"answer-graph": "2"}}
	plainReads, pinnedReads := logged(t, ans, plain), logged(t, ans, pinned)

	if err := reg.SetActive("answer-graph", 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := plainReads.Revalidate(plain, vecstore.Token{}); ok {
		t.Error("a log rendered under answer-graph@1 revalidated under @2")
	}
	if _, ok := pinnedReads.Revalidate(pinned, vecstore.Token{}); !ok {
		t.Error("a pinned query's log was refused though its view did not change")
	}
	if err := reg.SetActive("answer-graph", 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := plainReads.Revalidate(plain, vecstore.Token{}); !ok {
		t.Error("restoring answer-graph@1 did not restore the log's validity")
	}
	if _, ok := (*Reads)(nil).Revalidate(plain, vecstore.Token{}); ok {
		t.Error("a nil log revalidated")
	}
}

// TestReadLogRefusesDoctoredScore: the log compares score bits exactly —
// flipping the lowest bit of one recorded score makes revalidation refuse
// against the very snapshot the run read.
func TestReadLogRefusesDoctoredScore(t *testing.T) {
	mgr := substrate.NewManager(embed.NewEncoder(), probeStore(), substrate.Config{})
	var top vecstore.Hit
	reads := logged(t, probe(mgr, nil, func(d Deps) {
		top = d.Index.BatchSearchWith(d.Index.Encoder().Encode, []string{"Alpha knows"}, 2)[0][0]
	}), Query{Text: "q"})
	if _, ok := reads.Revalidate(Query{Text: "q"}, vecstore.Token{}); !ok {
		t.Fatal("the undoctored log was refused")
	}
	bits := binary.LittleEndian.AppendUint64(nil, math.Float64bits(top.Score))
	at := bytes.Index(reads.ops, bits)
	if at < 0 {
		t.Fatal("the top hit's score bits are not in the log")
	}
	doctored := *reads
	doctored.ops = bytes.Clone(reads.ops)
	doctored.ops[at] ^= 1
	if _, ok := doctored.Revalidate(Query{Text: "q"}, vecstore.Token{}); ok {
		t.Fatal("a log with one flipped score bit revalidated")
	}
	for cut := range reads.ops {
		truncated := doctored
		truncated.ops = reads.ops[:cut]
		truncated.Revalidate(Query{Text: "q"}, vecstore.Token{}) // must not panic
	}
}
