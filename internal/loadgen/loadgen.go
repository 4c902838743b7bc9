// Package loadgen drives a pgakvd answer endpoint with traffic-realistic
// load: a pool of client identities issuing /v1/answer requests whose
// question popularity follows a zipfian distribution (a few hot questions
// dominate, a long tail of cold ones — the shape that exercises the
// answer cache and singleflight the way production traffic would).
//
// Two arrival models are supported. Closed-loop: each of N clients keeps
// exactly one request outstanding, so offered load self-limits to server
// capacity — the model for saturation and overload tests. Open-loop: a
// fixed arrival rate independent of server latency, so queues grow when
// the server falls behind — the model for measuring latency under a
// target throughput.
//
// Accepted (2xx) and refused (429) latencies are summarised separately:
// the whole point of load shedding is that refusals are much cheaper
// than service, and folding the two into one distribution would hide it.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Config shapes one load-generation run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Method/Model/KG select the answerer; empty values use the server
	// defaults ("ours", gpt3.5, wikidata).
	Method string
	Model  string
	KG     string
	// Questions is the query pool sampled with zipfian popularity;
	// index 0 is the hottest question.
	Questions []string
	// ZipfS is the zipf skew exponent (> 1; larger = hotter head).
	// Zero picks the default 1.3.
	ZipfS float64
	// Clients is the number of concurrent workers (closed loop) or client
	// identities (both modes). Zero picks 4.
	Clients int
	// Identities, when > 0, spreads requests across this many X-API-Key
	// values so per-client rate limits see distinct buckets; 0 sends no
	// key (all traffic is one identity per source address).
	Identities int
	// Requests is the closed-loop total request count.
	Requests int
	// RatePerSec > 0 switches to open-loop arrivals at this aggregate
	// rate for Duration.
	RatePerSec float64
	// Duration bounds an open-loop run.
	Duration time.Duration
	// Timeout caps each request (0 = 30s).
	Timeout time.Duration
	// Seed makes the zipf sampling deterministic.
	Seed int64
	// HTTPClient overrides the transport (tests inject the httptest
	// client); nil uses a pooled default.
	HTTPClient *http.Client
	// SplitByNode additionally buckets accepted responses by the
	// X-Served-By header — the node a pgakvlb router proxied each request
	// to — so a replicated topology's latency populations can be compared
	// per backing node. Responses without the header land under "origin".
	SplitByNode bool
}

// Result is one run's client-side account.
type Result struct {
	Mode      string  `json:"mode"` // "closed" or "open"
	Clients   int     `json:"clients"`
	ZipfS     float64 `json:"zipf_s"`
	Issued    int64   `json:"issued"`
	OK        int64   `json:"ok"`
	CacheHits int64   `json:"cache_hits"`
	// Rejected counts 429s — shed or rate-limited before any pipeline
	// work, by the admission contract.
	Rejected int64 `json:"rejected"`
	// Errors counts transport failures and non-2xx/non-429 statuses.
	Errors  int64         `json:"errors"`
	Elapsed time.Duration `json:"elapsed"`
	// Accepted and Refused summarise the two latency populations
	// separately; shedding is working when Refused sits far below
	// Accepted.
	Accepted LatencySummary `json:"accepted"`
	Refused  LatencySummary `json:"refused"`
	// Nodes splits the accepted population by the node that served each
	// response (Config.SplitByNode); nil otherwise.
	Nodes map[string]NodeSummary `json:"nodes,omitempty"`
}

// NodeSummary is one backing node's share of a routed run.
type NodeSummary struct {
	OK        int64          `json:"ok"`
	CacheHits int64          `json:"cache_hits"`
	Latency   LatencySummary `json:"latency"`
}

// AchievedRPS is the completed-request throughput.
func (r Result) AchievedRPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Issued) / r.Elapsed.Seconds()
}

// LatencySummary is a client-observed latency distribution.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// sampleSet accumulates latency samples for one population.
type sampleSet struct {
	mu sync.Mutex
	ms []float64
}

func (s *sampleSet) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

func (s *sampleSet) summary() LatencySummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := LatencySummary{Count: int64(len(s.ms))}
	if len(s.ms) == 0 {
		return out
	}
	sorted := append([]float64(nil), s.ms...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	out.MeanMS = sum / float64(len(sorted))
	out.P50MS = metrics.Percentile(sorted, 50)
	out.P95MS = metrics.Percentile(sorted, 95)
	out.P99MS = metrics.Percentile(sorted, 99)
	return out
}

// Run executes the configured load against the server. The context
// cancels the whole run early; in-flight requests are abandoned.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.BaseURL == "" {
		return Result{}, fmt.Errorf("loadgen: BaseURL is required")
	}
	if len(cfg.Questions) == 0 {
		return Result{}, fmt.Errorf("loadgen: question pool is empty")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.3
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{}
	}
	g := &generator{cfg: cfg, httpc: httpc}
	start := time.Now()
	var err error
	if cfg.RatePerSec > 0 {
		err = g.runOpen(ctx)
	} else {
		err = g.runClosed(ctx)
	}
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Mode:      "closed",
		Clients:   cfg.Clients,
		ZipfS:     cfg.ZipfS,
		Issued:    g.issued.Load(),
		OK:        g.ok.Load(),
		CacheHits: g.cacheHits.Load(),
		Rejected:  g.rejected.Load(),
		Errors:    g.errors.Load(),
		Elapsed:   time.Since(start),
		Accepted:  g.accepted.summary(),
		Refused:   g.refused.summary(),
		Nodes:     g.nodeSummaries(),
	}
	if cfg.RatePerSec > 0 {
		res.Mode = "open"
	}
	return res, nil
}

type generator struct {
	cfg   Config
	httpc *http.Client

	issued    atomic.Int64
	ok        atomic.Int64
	cacheHits atomic.Int64
	rejected  atomic.Int64
	errors    atomic.Int64
	accepted  sampleSet
	refused   sampleSet

	nodeMu sync.Mutex
	nodes  map[string]*nodeAccount
}

// nodeAccount accumulates one backing node's accepted responses.
type nodeAccount struct {
	ok        int64
	cacheHits int64
	samples   sampleSet
}

// recordNode buckets one accepted response under the node that served
// it (only called with SplitByNode on).
func (g *generator) recordNode(node string, elapsed time.Duration, cacheHit bool) {
	if node == "" {
		node = "origin"
	}
	g.nodeMu.Lock()
	if g.nodes == nil {
		g.nodes = make(map[string]*nodeAccount)
	}
	acct := g.nodes[node]
	if acct == nil {
		acct = &nodeAccount{}
		g.nodes[node] = acct
	}
	acct.ok++
	if cacheHit {
		acct.cacheHits++
	}
	g.nodeMu.Unlock()
	acct.samples.add(elapsed)
}

func (g *generator) nodeSummaries() map[string]NodeSummary {
	g.nodeMu.Lock()
	defer g.nodeMu.Unlock()
	if g.nodes == nil {
		return nil
	}
	out := make(map[string]NodeSummary, len(g.nodes))
	for node, acct := range g.nodes {
		out[node] = NodeSummary{OK: acct.ok, CacheHits: acct.cacheHits, Latency: acct.samples.summary()}
	}
	return out
}

// runClosed keeps cfg.Clients workers each with one request outstanding
// until cfg.Requests have been issued.
func (g *generator) runClosed(ctx context.Context) error {
	if g.cfg.Requests <= 0 {
		return fmt.Errorf("loadgen: closed loop needs Requests > 0 (or set RatePerSec for open loop)")
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g.cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g.cfg.Seed + int64(w)*7919))
			zipf := g.newZipf(rng)
			for {
				n := next.Add(1)
				if n > int64(g.cfg.Requests) || ctx.Err() != nil {
					return
				}
				g.send(ctx, w, g.pick(zipf))
			}
		}(w)
	}
	wg.Wait()
	return nil
}

// runOpen dispatches arrivals at the configured aggregate rate for the
// configured duration, regardless of how fast the server responds.
func (g *generator) runOpen(ctx context.Context) error {
	if g.cfg.Duration <= 0 {
		return fmt.Errorf("loadgen: open loop needs Duration > 0")
	}
	interval := time.Duration(float64(time.Second) / g.cfg.RatePerSec)
	if interval <= 0 {
		interval = time.Microsecond
	}
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	zipf := g.newZipf(rng)
	var mu sync.Mutex // guards rng/zipf shared across arrival goroutines
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(g.cfg.Duration)
	defer deadline.Stop()
	var wg sync.WaitGroup
	arrival := 0
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return nil
		case <-deadline.C:
			wg.Wait()
			return nil
		case <-ticker.C:
			arrival++
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				mu.Lock()
				q := g.pick(zipf)
				mu.Unlock()
				g.send(ctx, w, q)
			}(arrival)
		}
	}
}

func (g *generator) newZipf(rng *rand.Rand) *rand.Zipf {
	return rand.NewZipf(rng, g.cfg.ZipfS, 1, uint64(len(g.cfg.Questions)-1))
}

// pick draws the next question: zipf rank r selects Questions[r], so
// index 0 is the hottest.
func (g *generator) pick(zipf *rand.Zipf) string {
	return g.cfg.Questions[int(zipf.Uint64())%len(g.cfg.Questions)]
}

// send issues one /v1/answer request and accounts for its outcome.
func (g *generator) send(ctx context.Context, w int, question string) {
	body, _ := json.Marshal(map[string]any{
		"question": question,
		"method":   g.cfg.Method,
		"model":    g.cfg.Model,
		"kg":       g.cfg.KG,
	})
	rctx, cancel := context.WithTimeout(ctx, g.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, g.cfg.BaseURL+"/v1/answer", bytes.NewReader(body))
	if err != nil {
		g.errors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if g.cfg.Identities > 0 {
		req.Header.Set("X-API-Key", fmt.Sprintf("loadgen-%d", w%g.cfg.Identities))
	}
	g.issued.Add(1)
	start := time.Now()
	resp, err := g.httpc.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		g.errors.Add(1)
		return
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		if resp.Header.Get("Retry-After") == "" {
			// A 429 without Retry-After violates the admission contract;
			// count it as an error so tests and operators see it.
			g.errors.Add(1)
			return
		}
		g.rejected.Add(1)
		g.refused.add(elapsed)
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		g.ok.Add(1)
		g.accepted.add(elapsed)
		hit := resp.Header.Get("X-Cache") == "hit"
		if hit {
			g.cacheHits.Add(1)
		}
		if g.cfg.SplitByNode {
			g.recordNode(resp.Header.Get("X-Served-By"), elapsed, hit)
		}
	default:
		g.errors.Add(1)
	}
}
