package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// This file is the benchmark's control: a control server whose code
// never changes with the repository, measured in slices interleaved with
// every measured phase. The box this rig runs on — two vCPUs of a shared
// host — runs the same binary up to half again slower for minutes at a
// time (CPU time per answer moves with it, so it is the cores, not the
// scheduler). No statistic over one run's samples removes that. What does
// is measuring, alongside, a fixed piece of work of the same kind — an HTTP
// round trip into another Go process that decodes JSON, scans a 4 MB matrix,
// sorts, allocates and encodes JSON — and reporting every time relative to
// it: the box speed index is the control's median round trip divided by
// its nominal value, and each end-to-end time is divided by the index.

// controlNominalMS is the control round trip's median on this box in its
// quiet state. It only fixes the scale: an index of 1.3 says the box ran
// 30 % slower than that while the run was measured.
const controlNominalMS = 2.85

const (
	controlRows = 4096
	controlDim  = 256
	// controlPasses scans of the matrix make one round trip cost about what a
	// cache-off answer costs.
	controlPasses = 2
)

type controlRequest struct {
	Question string `json:"question"`
	Method   string `json:"method"`
	KG       string `json:"kg"`
}

type controlResponse struct {
	Answer  string      `json:"answer"`
	KG      string      `json:"kg"`
	Triples [][3]string `json:"triples"`
	Scores  []float64   `json:"scores"`
}

// controlWork is the fixed work behind one control request.
func controlWork(mat []float32, req controlRequest) controlResponse {
	var query [controlDim]float32
	h := uint32(2166136261)
	for i := 0; i < len(req.Question); i++ {
		h = (h ^ uint32(req.Question[i])) * 16777619
		query[h%controlDim]++
	}
	out := controlResponse{KG: req.KG}
	for pass := 0; pass < controlPasses; pass++ {
		scores := make([]float64, controlRows)
		for r := range scores {
			row := mat[r*controlDim : (r+1)*controlDim]
			var acc float32
			for i, v := range row {
				acc += v * query[i]
			}
			scores[r] = float64(acc)
		}
		idx := make([]int, controlRows)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
		for _, i := range idx[:8] {
			out.Triples = append(out.Triples, [3]string{fmt.Sprintf("entity %d", i), "related to", fmt.Sprintf("object %d", i*7)})
			out.Scores = append(out.Scores, scores[i])
		}
		query[pass]++
	}
	out.Answer = fmt.Sprintf("answer to %q from %d triples", req.Question, len(out.Triples))
	return out
}

// controlMain is the child process (the hidden -control-server flag): POST /work
// does controlWork, GET /healthz is the readiness probe.
func controlMain(addr string) {
	rng := rand.New(rand.NewSource(11))
	mat := make([]float32, controlRows*controlDim)
	for i := range mat {
		mat[i] = rng.Float32() - 0.5
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/work", func(w http.ResponseWriter, r *http.Request) {
		var req controlRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		raw, _ := json.Marshal(controlWork(mat, req))
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark control server:", err)
		os.Exit(1)
	}
}

// controlServer is the running control child and the connections that
// drive it.
type controlServer struct {
	proc   *proc
	conns  []*conn
	bodies [][]byte // request bodies, asked in order, round and round
	next   int
}

// startControl launches this binary as the control server. The child is one
// of the rig's processes: every exit path kills and reaps it.
func (r *rig) startControl(bodies [][]byte) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p, err := r.start("control", exe, "-control-server", addr)
	if err != nil {
		return err
	}
	p.url = "http://" + addr
	if err := r.await(p, healthy, readyDeadline); err != nil {
		p.kill()
		return err
	}
	r.control = &controlServer{proc: p, conns: []*conn{newConn(""), newConn("")}, bodies: bodies}
	// One untimed slice: the child's first requests fault its matrix in.
	_, err = r.control.slice(2, setupControlSlice)
	return err
}

// slice drives the control server closed-loop from n connections for d
// and returns the round trips in ms.
func (cs *controlServer) slice(n int, d time.Duration) ([]float64, error) {
	deadline := time.Now().Add(d)
	lats := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		start := cs.next + i
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for q := start; time.Now().Before(deadline); q += n {
				t0 := time.Now()
				resp, _, err := cs.conns[i].post(cs.proc.url, "/work", cs.bodies[q%len(cs.bodies)], 0)
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
				if err != nil {
					errs[i] = fmt.Errorf("control request: %w", err)
					return
				}
				lats[i] = append(lats[i], float64(time.Since(t0))/float64(time.Millisecond))
			}
		}(i)
	}
	wg.Wait()
	var out []float64
	for i := range lats {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, lats[i]...)
	}
	cs.next += len(out)
	return out, nil
}

// speedIndex is the control's median round trip over the given slices'
// samples, as a multiple of its nominal value.
func speedIndex(slices ...[]float64) float64 {
	var all []float64
	for _, s := range slices {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return 1
	}
	sort.Float64s(all)
	return percentile(all, 50) / controlNominalMS
}
