package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestLatencySummary(t *testing.T) {
	seq := func(n int) []float64 { // n..1, so summary must sort
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	cases := []struct {
		name string
		ms   []float64
		want LatencySummary
	}{
		{"empty", nil, LatencySummary{}},
		{"one", []float64{7}, LatencySummary{Count: 1, MeanMS: 7, P50MS: 7, P95MS: 7, P99MS: 7}},
		{"two", []float64{4, 2}, LatencySummary{Count: 2, MeanMS: 3, P50MS: 2, P95MS: 4, P99MS: 4}},
		{"hundred", seq(100), LatencySummary{Count: 100, MeanMS: 50.5, P50MS: 50, P95MS: 95, P99MS: 99}},
	}
	for _, c := range cases {
		var s sampleSet
		for _, ms := range c.ms {
			s.add(time.Duration(ms * float64(time.Millisecond)))
		}
		if got := s.summary(); got != c.want {
			t.Errorf("%s: summary = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestZipfPicker(t *testing.T) {
	pool := make([]string, 50)
	index := make(map[string]int, len(pool))
	for i := range pool {
		pool[i] = fmt.Sprintf("q%d", i)
		index[pool[i]] = i
	}
	g := &generator{cfg: Config{Questions: pool, ZipfS: 1.3}}
	draw := func(seed int64, n int) []string {
		zipf := g.newZipf(rand.New(rand.NewSource(seed)))
		out := make([]string, n)
		for i := range out {
			out[i] = g.pick(zipf)
		}
		return out
	}
	a, b, other := draw(1, 2000), draw(1, 2000), draw(2, 2000)
	counts := make([]int, len(pool))
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 not deterministic at draw %d: %s vs %s", i, a[i], b[i])
		}
		same = same && a[i] == other[i]
		rank, ok := index[a[i]]
		if !ok {
			t.Fatalf("draw %d picked %q, not in the pool", i, a[i])
		}
		counts[rank]++
	}
	if same {
		t.Error("seeds 1 and 2 drew identical sequences")
	}
	for rank := 1; rank < len(counts); rank++ {
		if counts[rank] > counts[0] {
			t.Errorf("rank %d drawn %d times, more than rank 0 (%d)", rank, counts[rank], counts[0])
		}
	}
}

// TestPopulationsKeptApart drives a server that serves, refuses with
// Retry-After, and refuses without it by question: each outcome must
// land in its own counter and its own latency population.
func TestPopulationsKeptApart(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Question string `json:"question"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch req.Question {
		case "serve":
			w.Header().Set("X-Cache", "hit")
			fmt.Fprint(w, `{}`)
		case "refuse":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		default: // a 429 that breaks the Retry-After contract
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()

	for _, mode := range []string{"closed", "open"} {
		cfg := Config{
			BaseURL:    srv.URL,
			Questions:  []string{"serve", "refuse", "bare-429"},
			ZipfS:      1.1,
			Clients:    3,
			Seed:       5,
			HTTPClient: srv.Client(),
		}
		if mode == "closed" {
			cfg.Requests = 120
		} else {
			cfg.RatePerSec = 2000
			cfg.Duration = 100 * time.Millisecond
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Mode != mode {
			t.Errorf("mode = %q, want %q", res.Mode, mode)
		}
		if mode == "closed" && res.Issued != 120 {
			t.Errorf("closed loop issued %d, want 120", res.Issued)
		}
		if res.OK == 0 || res.Rejected == 0 || res.Errors == 0 {
			t.Fatalf("%s: an outcome never occurred: %+v", mode, res)
		}
		if res.OK+res.Rejected+res.Errors != res.Issued {
			t.Errorf("%s: ok %d + rejected %d + errors %d != issued %d", mode, res.OK, res.Rejected, res.Errors, res.Issued)
		}
		if res.Accepted.Count != res.OK || res.Refused.Count != res.Rejected {
			t.Errorf("%s: populations mixed: accepted %d samples for %d ok, refused %d samples for %d rejected",
				mode, res.Accepted.Count, res.OK, res.Refused.Count, res.Rejected)
		}
		if res.CacheHits != res.OK {
			t.Errorf("%s: cache hits %d, want every ok (%d)", mode, res.CacheHits, res.OK)
		}
	}
}
