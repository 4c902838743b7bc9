package repl

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failure"
)

// RouterConfig configures the read load-balancer.
type RouterConfig struct {
	// Primary is the single write home; ingests, snapshots and prompt
	// reloads always forward here, and reads fall back to it when no
	// replica qualifies.
	Primary string
	// Replicas are the read nodes.
	Replicas []string
	// MaxLag is the health threshold in records (= epochs): a replica
	// whose worst-source lag behind the primary exceeds it stops taking
	// reads until it catches up. Default 64.
	MaxLag uint64
	// ProbeInterval paces the health/epoch probes. Default 500ms.
	ProbeInterval time.Duration
	// Client issues probes; nil uses a 2s-timeout client.
	Client *http.Client
}

// node is one routed backend and the router's latest view of it.
type node struct {
	url   string
	proxy *httputil.ReverseProxy

	mu      sync.Mutex
	healthy bool
	lastErr string
	// epochs per source are monotone maxima of everything ever probed:
	// a node's real epoch only grows, so the cached value is a LOWER
	// bound on the truth — exactly the safe direction for X-Min-Epoch
	// routing (we may under-route to a qualified node, never route a
	// min-epoch read to an unqualified one).
	epochs map[string]uint64
}

func (n *node) snapshotEpochs() map[string]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]uint64, len(n.epochs))
	for k, v := range n.epochs {
		out[k] = v
	}
	return out
}

// Router is the pgakvlb core: an http.Handler that splits traffic
// between the primary and its replicas.
//
// Routing policy:
//   - Writes (/v1/ingest, /v1/snapshot/*, /v1/prompts/reload) and
//     anything unrecognized go to the primary.
//   - Reads (/v1/answer, /v1/batch, /v1/methods, /v1/metrics of the
//     backing node? no — reads are the answer-path routes; see
//     readPaths) round-robin across healthy replicas within MaxLag.
//   - X-Min-Epoch: N routes only to replicas whose cached epoch for
//     EVERY source is >= N, else falls back to the primary, which is
//     always current. Responses carry X-Served-By: the chosen node.
//
// The router's own endpoints:
//
//	GET /healthz        router liveness
//	GET /v1/lb/status   node table, routed-read counters
type Router struct {
	cfg      RouterConfig
	primary  *node
	replicas []*node
	rr       atomic.Uint64

	readsRouted     sync.Map // node url -> *atomic.Uint64
	primaryFallback atomic.Uint64
	minEpochReads   atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewRouter builds the router and starts its probe loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("repl: router needs a primary")
	}
	if cfg.MaxLag == 0 {
		cfg.MaxLag = 64
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 2 * time.Second}
	}
	r := &Router{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	var err error
	if r.primary, err = newNode(cfg.Primary); err != nil {
		return nil, err
	}
	for _, u := range cfg.Replicas {
		n, err := newNode(u)
		if err != nil {
			return nil, err
		}
		r.replicas = append(r.replicas, n)
	}
	r.probeAll()
	go r.probeLoop()
	return r, nil
}

func newNode(base string) (*node, error) {
	target, err := url.Parse(base)
	if err != nil || target.Scheme == "" || target.Host == "" {
		return nil, fmt.Errorf("repl: invalid node url %q", base)
	}
	n := &node{url: base, epochs: map[string]uint64{}}
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = func(resp *http.Response) error {
		resp.Header.Set("X-Served-By", base)
		return nil
	}
	proxy.ErrorHandler = func(w http.ResponseWriter, req *http.Request, err error) {
		n.mu.Lock()
		n.healthy = false
		n.lastErr = err.Error()
		n.mu.Unlock()
		writeError(w, failure.Unreachable, fmt.Errorf("node %s: %v", base, err))
	}
	n.proxy = proxy
	return n, nil
}

// Close stops the probe loop.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *Router) probeLoop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.probeAll()
		case <-r.stop:
			return
		}
	}
}

// probeAll refreshes every node concurrently within one interval.
func (r *Router) probeAll() {
	var wg sync.WaitGroup
	for _, n := range append([]*node{r.primary}, r.replicas...) {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			r.probeNode(n)
		}(n)
	}
	wg.Wait()
}

// probeNode checks liveness (/healthz) and refreshes the node's epochs
// (/v1/repl/info). Lag-based health is evaluated at routing time
// against the primary's freshest epochs, not here, so one probe's
// ordering can't mark a caught-up node laggy.
func (r *Router) probeNode(n *node) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Client.Timeout+time.Second)
	defer cancel()
	fail := func(err error) {
		n.mu.Lock()
		n.healthy = false
		n.lastErr = err.Error()
		n.mu.Unlock()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/healthz", nil)
	if err != nil {
		fail(err)
		return
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		fail(err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("healthz: %s", resp.Status))
		return
	}
	info, err := FetchInfo(ctx, r.cfg.Client, n.url)
	if err != nil {
		fail(err)
		return
	}
	n.mu.Lock()
	n.healthy = true
	n.lastErr = ""
	for src, si := range info.Sources {
		if si.Epoch > n.epochs[src] {
			n.epochs[src] = si.Epoch
		}
	}
	n.mu.Unlock()
}

// qualifies reports whether a replica may take a read: healthy, within
// MaxLag of the primary on every source, and (when minEpoch > 0) at or
// past minEpoch on every source.
func (r *Router) qualifies(n *node, primaryEpochs map[string]uint64, minEpoch uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.healthy {
		return false
	}
	for src, pe := range primaryEpochs {
		ne := n.epochs[src]
		// ne is a lower bound on the node's real epoch, pe a lower bound
		// on the primary's: lag computed from them can over- OR
		// under-estimate, but MaxLag is a health heuristic; the hard
		// consistency guarantee is minEpoch, which only ever compares the
		// node's lower bound against the client's requirement.
		if pe > ne && pe-ne > r.cfg.MaxLag {
			return false
		}
		if minEpoch > 0 && ne < minEpoch {
			return false
		}
	}
	return true
}

// pickReplica returns the next qualifying replica, nil when none.
func (r *Router) pickReplica(minEpoch uint64) *node {
	if len(r.replicas) == 0 {
		return nil
	}
	primaryEpochs := r.primary.snapshotEpochs()
	start := int(r.rr.Add(1))
	for i := 0; i < len(r.replicas); i++ {
		n := r.replicas[(start+i)%len(r.replicas)]
		if r.qualifies(n, primaryEpochs, minEpoch) {
			return n
		}
	}
	return nil
}

// readPath reports whether a request may be served by a replica.
// Everything else — writes, admin, unknown paths — goes to the primary,
// which is always correct, just not horizontally scaled.
func readPath(req *http.Request) bool {
	p := req.URL.Path
	switch {
	case p == "/v1/answer" || p == "/v1/batch":
		return true
	case p == "/v1/methods" || p == "/v1/prompts":
		return true
	case strings.HasPrefix(p, "/v1/traces"):
		return true
	default:
		return false
	}
}

func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch req.URL.Path {
	case "/healthz":
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "router"})
		return
	case "/v1/lb/status":
		writeJSON(w, http.StatusOK, r.Status())
		return
	}
	if !readPath(req) {
		r.forward(w, req, r.primary)
		return
	}
	minEpoch, err := ParseMinEpoch(req.Header.Get("X-Min-Epoch"))
	if err != nil {
		writeError(w, failure.InvalidQuery, err)
		return
	}
	if minEpoch > 0 {
		r.minEpochReads.Add(1)
	}
	n := r.pickReplica(minEpoch)
	if n == nil {
		// No qualifying replica (all lagged, down, or below the client's
		// min epoch): the primary serves the read itself. This is the
		// "wait-or-primary" arm of read-your-writes — the primary's epoch
		// is by definition current, so the guarantee holds trivially.
		r.primaryFallback.Add(1)
		r.forward(w, req, r.primary)
		return
	}
	r.forward(w, req, n)
}

func (r *Router) forward(w http.ResponseWriter, req *http.Request, n *node) {
	c, _ := r.readsRouted.LoadOrStore(n.url, new(atomic.Uint64))
	c.(*atomic.Uint64).Add(1)
	n.proxy.ServeHTTP(w, req)
}

// NodeStatus is one node's row in /v1/lb/status.
type NodeStatus struct {
	URL       string            `json:"url"`
	Role      string            `json:"role"`
	Healthy   bool              `json:"healthy"`
	Epochs    map[string]uint64 `json:"epochs"`
	LagByKG   map[string]uint64 `json:"lag_by_kg,omitempty"`
	LastError string            `json:"last_error,omitempty"`
	Requests  uint64            `json:"requests_routed"`
}

// StatusResponse is the /v1/lb/status body.
type StatusResponse struct {
	Primary  NodeStatus   `json:"primary"`
	Replicas []NodeStatus `json:"replicas"`
	// PrimaryFallbacks counts reads the primary served because no
	// replica qualified; MinEpochReads counts reads carrying an
	// X-Min-Epoch requirement.
	PrimaryFallbacks uint64 `json:"primary_fallbacks"`
	MinEpochReads    uint64 `json:"min_epoch_reads"`
	MaxLag           uint64 `json:"max_lag"`
}

// Status snapshots the node table.
func (r *Router) Status() StatusResponse {
	primaryEpochs := r.primary.snapshotEpochs()
	status := func(n *node, role string) NodeStatus {
		n.mu.Lock()
		defer n.mu.Unlock()
		s := NodeStatus{URL: n.url, Role: role, Healthy: n.healthy, LastError: n.lastErr, Epochs: map[string]uint64{}}
		for k, v := range n.epochs {
			s.Epochs[k] = v
		}
		if role == "replica" {
			s.LagByKG = map[string]uint64{}
			for src, pe := range primaryEpochs {
				if ne := n.epochs[src]; pe > ne {
					s.LagByKG[src] = pe - ne
				} else {
					s.LagByKG[src] = 0
				}
			}
		}
		if c, ok := r.readsRouted.Load(n.url); ok {
			s.Requests = c.(*atomic.Uint64).Load()
		}
		return s
	}
	resp := StatusResponse{
		Primary:          status(r.primary, "primary"),
		PrimaryFallbacks: r.primaryFallback.Load(),
		MinEpochReads:    r.minEpochReads.Load(),
		MaxLag:           r.cfg.MaxLag,
	}
	for _, n := range r.replicas {
		resp.Replicas = append(resp.Replicas, status(n, "replica"))
	}
	return resp
}
