package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/answer"
	"repro/internal/kg"
	"repro/internal/metrics"
	"repro/internal/qa"
)

// This file is what makes a run correct or not: the in-process reference
// every static-substrate reply is compared with, the per-connection epoch
// guard, and the durability and replication invariants checked after the
// timed phase.

// refAnswer is what the in-process reference says a static-substrate
// server must reply for one (KG, question).
type refAnswer struct {
	Answer           string
	LLMCalls         int
	PromptTokens     int
	CompletionTokens int
}

// reference holds the expected reply for every pool question on each KG,
// indexed [position in kgSources][pool index], plus a few full results
// whose traces feed the direct timed calls.
type reference struct {
	answers [][]refAnswer
	samples []answer.Result // first refSamples wikidata results, traces kept
}

const refSamples = 64

// buildReference answers the whole pool on both KGs with a bare cache-off
// node — the same world, registry method and model the servers run, so
// the replay gate's determinism makes server replies comparable exactly.
func buildReference(ip *inproc) (*reference, error) {
	n, err := ip.newNode(nodeConfig{}, hooks{})
	if err != nil {
		return nil, err
	}
	defer n.close()
	queries := make([]answer.Query, len(ip.pool))
	for i, q := range ip.pool {
		queries[i] = query(q.Text)
	}
	ref := &reference{}
	for _, src := range kgSources {
		items := answer.Batch(context.Background(), n.answerers[src], queries, answer.Concurrency(runtime.GOMAXPROCS(0)))
		if err := answer.FirstError(items); err != nil {
			return nil, fmt.Errorf("reference on %s: %w", src, err)
		}
		row := make([]refAnswer, len(items))
		for i, it := range items {
			row[i] = refAnswer{it.Result.Answer, it.Result.LLMCalls, it.Result.PromptTokens, it.Result.CompletionTokens}
			if src == kg.SourceWikidata && i < refSamples {
				ref.samples = append(ref.samples, it.Result)
			}
		}
		ref.answers = append(ref.answers, row)
	}
	return ref, nil
}

func kgIndex(src kg.Source) int {
	if src == kg.SourceWikidata {
		return 0
	}
	return 1
}

// matches reports whether a server reply is the reference reply. A cache
// hit carries the answer but reports zero LLM usage (the cost belongs to
// the run that filled the entry), so usage is compared on real runs only.
func (r refAnswer) matches(rep reply) bool {
	if rep.wire.Answer != r.Answer {
		return false
	}
	return rep.cacheHit || (rep.wire.LLMCalls == r.LLMCalls &&
		rep.wire.PromptTokens == r.PromptTokens && rep.wire.CompletionTokens == r.CompletionTokens)
}

// score is the paper's per-question quality: Hit@1 for precise questions,
// ROUGE-L f1 against the references for open ones.
func score(q qa.Question, text string) float64 {
	if q.Open() {
		return metrics.RougeLMulti(text, q.Refs)
	}
	return metrics.Hit1(text, q.Golds)
}

// checker collects correctness failures; the first few are kept verbatim.
type checker struct {
	mu       sync.Mutex
	failures int
	first    []string
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// epochGuard checks that epochs never go backwards on one connection. A
// node's epoch is monotone; a router may alternate a connection between
// nodes, so the guard is per (KG, serving node).
type epochGuard map[string]uint64

func (g epochGuard) observe(chk *checker, who string, rep reply) bool {
	key := rep.wire.KG + "@" + rep.servedBy
	if rep.wire.Epoch < g[key] {
		chk.failf("%s: epoch went backwards on %s: %d after %d", who, key, rep.wire.Epoch, g[key])
		return false
	}
	g[key] = rep.wire.Epoch
	return true
}

// checkDurable holds the mixed_ingest invariants: the epoch advanced once
// per ingest and per compaction, no triple was lost or doubled, and a
// kill -9 followed by a restart on the same directory recovers every
// acknowledged write. It returns the restart time in seconds.
func (rs *runState) checkDurable(verify verifyResult, writer writerStats) float64 {
	src := ingestSource.String()
	seedStore, err := rs.ip.seedStore(ingestSource)
	if err != nil {
		rs.chk.failf("durable: %v", err)
		return 0
	}
	wantTriples := seedStore.Len() + writer.triplesPosted
	if want := rs.batches * rs.w.batchSize; writer.triplesPosted != want {
		rs.chk.failf("durable: %d triples acknowledged, want %d", writer.triplesPosted, want)
	}
	// /v1/metrics reads the epoch and the two counters one after another,
	// not under one lock, so a compaction publishing at that instant can
	// show a sum one short; the identity must hold on a re-read.
	var before serverMetrics
	for attempt := 0; ; attempt++ {
		if before, err = scrape(rs.topo.primary.url); err != nil {
			rs.chk.failf("durable: %v", err)
			return 0
		}
		sub := before.Substrates[src]
		want := verify.epochs[src] + uint64(sub.Ingests) + uint64(sub.Compactions)
		if sub.Epoch == want {
			break
		}
		if attempt == 5 {
			rs.chk.failf("durable: epoch %d, want boot %d + %d ingests + %d compactions = %d", sub.Epoch, verify.epochs[src], sub.Ingests, sub.Compactions, want)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if sub := before.Substrates[src]; sub.BaseTriples+sub.DeltaTriples != wantTriples {
		rs.chk.failf("durable: %d triples, want seed %d + %d ingested = %d", sub.BaseTriples+sub.DeltaTriples, seedStore.Len(), writer.triplesPosted, wantTriples)
	}

	old := rs.topo.primary
	old.kill()
	start := time.Now()
	p, err := rs.rig.startServer(rs.w.Name+"-restart", "pgakvd", rs.topo.primaryPort, healthy, rs.topo.primaryArgs...)
	if err != nil {
		rs.chk.failf("durable: restart: %v", err)
		return 0
	}
	restart := time.Since(start).Seconds()
	rs.topo.primary = p
	after, err := scrape(p.url)
	if err != nil {
		rs.chk.failf("durable: %v", err)
		return restart
	}
	// A primary's recovery publishes once (its boot epoch marker), so the
	// epoch a restart reports is exactly one past the last one served.
	b, a := before.Substrates[src], after.Substrates[src]
	if a.Epoch != b.Epoch+1 {
		rs.chk.failf("durable: epoch %d after kill -9 restart, want %d + 1 boot marker", a.Epoch, b.Epoch)
	}
	if got := a.BaseTriples + a.DeltaTriples; got != wantTriples {
		rs.chk.failf("durable: %d triples after kill -9 restart, want %d", got, wantTriples)
	}
	return restart
}

// crossNodeSamples is how many questions the routed check compares.
const crossNodeSamples = 20

// checkReplicas holds the routed_reads invariants: both replicas catch up
// to the primary, and sampled questions asked of each node directly come
// back byte-identical (timing aside) at the final epoch.
func (rs *runState) checkReplicas(lastIngestEpoch uint64) {
	for _, p := range rs.topo.replicas {
		if err := rs.rig.await(p, caughtUp, 30*time.Second); err != nil {
			rs.chk.failf("routed: %v", err)
			return
		}
	}
	step := len(rs.ip.pool) / crossNodeSamples
	for i := 0; i < crossNodeSamples; i++ {
		body := rs.ip.bodies[kgIndex(ingestSource)][i*step]
		var first string
		for _, p := range rs.topo.nodes() {
			got, epoch, err := canonicalAnswer(rs.conns[0], p.url, body)
			switch {
			case err != nil:
				rs.chk.failf("routed: q%d on %s: %v", i*step, p.name, err)
			case epoch < lastIngestEpoch:
				rs.chk.failf("routed: q%d on %s answered at epoch %d, below the last acknowledged ingest %d", i*step, p.name, epoch, lastIngestEpoch)
			case first == "":
				first = got
			case got != first:
				rs.chk.failf("routed: q%d differs across nodes:\n  %s\n  %s", i*step, first, got)
			}
		}
	}
}

// canonicalAnswer fetches one answer and re-marshals it with sorted keys
// and without the fields that describe how the reply was produced rather
// than what it says — timing, and the LLM usage a cache hit reports as
// zero — so two nodes serving identical content give identical bytes.
func canonicalAnswer(c *conn, base string, body []byte) (string, uint64, error) {
	resp, raw, err := c.post(base, "/v1/answer", body, 0)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return "", 0, err
	}
	for _, k := range []string{"elapsed_ms", "llm_calls", "prompt_tokens", "completion_tokens"} {
		delete(m, k)
	}
	epoch, _ := m["epoch"].(float64)
	out, err := json.Marshal(m)
	return string(out), uint64(epoch), err
}
