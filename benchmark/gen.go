package main

import (
	"fmt"
	"math/rand"

	"repro/internal/answer"
	"repro/internal/kg"
	"repro/internal/qa"
)

// This file holds the deterministic input generators. The workload seed
// drives only what is generated here — zipf draws, uniform draws, ingested
// triple names — and never reaches a server flag: the servers always run
// the default world (seed 42). The same (workload, client, seed) gives a
// byte-identical sequence; TestGeneratorsDeterministic holds that.

// zipfS is the skew of every zipf reader (index 0 of the pool is hottest).
const zipfS = 1.3

// readOp is one /v1/answer request: a pool index and the KG to ask.
type readOp struct {
	Q  int
	KG kg.Source
}

// readGen yields one client's read sequence.
type readGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf // nil = uniform
	n    int
	kgs  []kg.Source
	i    int
}

// streamSeed derives an independent rng seed per (workload seed, stream):
// clients of one run must not draw the same sequence.
func streamSeed(seed int64, stream int) int64 {
	return seed*1_000_003 + int64(stream)*7919 + 17
}

// newReadGen builds a client's generator over a pool of n questions.
// Questions are drawn zipf(1.3) by pool rank or uniformly; the KG
// alternates per request through kgs, offset by the stream number so two
// clients do not ask the same KG in lockstep.
func newReadGen(seed int64, stream, n int, zipf bool, kgs []kg.Source) *readGen {
	g := &readGen{rng: rand.New(rand.NewSource(streamSeed(seed, stream))), n: n, kgs: kgs, i: stream}
	if zipf {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(n-1))
	}
	return g
}

func (g *readGen) next() readOp {
	var q int
	if g.zipf != nil {
		q = int(g.zipf.Uint64())
	} else {
		q = g.rng.Intn(g.n)
	}
	op := readOp{Q: q, KG: g.kgs[g.i%len(g.kgs)]}
	g.i++
	return op
}

// ingestBatch returns batch b of a workload's writer: size fresh triples
// whose subjects are unique per (workload, seed, batch, position) and
// shaped unlike any world entity name, so the server never skips one and
// the final triple count is exactly seed + batches*size. Numbers are
// zero-padded so the WAL bytes per triple do not depend on the seed.
func ingestBatch(workload string, seed int64, b, size int) []kg.Triple {
	out := make([]kg.Triple, size)
	for t := range out {
		out[t] = kg.Triple{
			Subject:  fmt.Sprintf("Bench Item %s s%06d b%05d t%03d", workload, seed%1_000_000, b, t),
			Relation: ingestRelations[(b+t)%len(ingestRelations)],
			Object:   fmt.Sprintf("Bench Value %06d-%05d-%03d", seed%1_000_000, b, t),
		}
	}
	return out
}

// ingestRelations are relation surfaces shaped like the world's (two or
// three lower-case words) without being any of them.
var ingestRelations = []string{"bench catalogue entry", "bench shelf mark", "bench ledger line", "bench audit tag"}

// pool flattens the suite in presentation order: the verify pass asks it
// in this order and zipf readers rank popularity by it. Every entry is its
// own cache key: answer.QueryKey folds case and whitespace, and a question
// whose key an earlier one already has (two of the noisy pack's 60 at the
// default scale) is left out — a cached server would answer it with the
// earlier question's entry, which no reference can predict across nodes.
func pool(sets []*qa.Dataset) []qa.Question {
	var out []qa.Question
	seen := map[string]bool{}
	for _, ds := range sets {
		for _, q := range ds.Questions {
			if key := answer.QueryKey(benchMethod, benchModel, query(q.Text)); !seen[key] {
				seen[key] = true
				out = append(out, q)
			}
		}
	}
	return out
}
