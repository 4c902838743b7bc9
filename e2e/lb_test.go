package e2e

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/racedetect"
)

// lbStatus is the slice of /v1/lb/status these tests read.
type lbStatus struct {
	Primary struct {
		Healthy bool `json:"healthy"`
	} `json:"primary"`
	Replicas []struct {
		URL      string `json:"url"`
		Healthy  bool   `json:"healthy"`
		Requests uint64 `json:"requests_routed"`
	} `json:"replicas"`
	MinEpochReads uint64 `json:"min_epoch_reads"`
}

// TestRouterEndToEnd runs the full topology as real processes — primary,
// replica, pgakvlb — and checks the router's contract over real sockets:
// writes land on the primary even when sent to the router, and a
// read-your-writes client (ingest at epoch E, read with X-Min-Epoch: E)
// never sees pre-E content no matter which node the router picks.
func TestRouterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real binaries")
	}
	if racedetect.Enabled {
		t.Skip("process-level chaos; race coverage lives in internal/repl")
	}
	bins := binaries(t)
	pgakvd := filepath.Join(bins, "pgakvd")
	pgakvlb := filepath.Join(bins, "pgakvlb")
	common := []string{"-quick", "-seed", "11", "-fsync", "always", "-compact-threshold", "0", "-cache-size", "0"}

	primary := startNode(t, "primary", pgakvd, freePort(t), append([]string{"-data-dir", t.TempDir()}, common...)...)
	waitHealthy(t, primary, 2*time.Minute)
	replica := startNode(t, "replica", pgakvd, freePort(t), append([]string{"-data-dir", t.TempDir(), "-replica-of", primary.url}, common...)...)
	waitHealthy(t, replica, 2*time.Minute)

	lb := startNode(t, "router", pgakvlb, freePort(t),
		"-primary", primary.url, "-replicas", replica.url, "-max-lag", "64", "-probe-interval", "50ms")
	waitHealthy(t, lb, 30*time.Second)
	waitFor(t, 30*time.Second, "router to see a healthy replica", func() bool {
		var st lbStatus
		if err := getJSON(t, lb.url+"/v1/lb/status", &st); err != nil {
			return false
		}
		return st.Primary.Healthy && len(st.Replicas) == 1 && st.Replicas[0].Healthy
	})

	// Read-your-writes through the router, 40 rounds: each ingest goes
	// through the router (forwarded to the primary), and the immediate
	// follow-up read pins X-Min-Epoch to the ingest's epoch. The replica
	// is racing to apply; whichever node serves, the fact must be there.
	client := &http.Client{Timeout: 30 * time.Second}
	servedBy := map[string]int{}
	for i := 0; i < 40; i++ {
		var ing struct {
			Epoch uint64 `json:"epoch"`
		}
		postJSON(t, lb.url+"/v1/ingest", fact(i), &ing)
		if ing.Epoch == 0 {
			t.Fatalf("round %d: ingest through router returned epoch 0", i)
		}

		req, err := http.NewRequest(http.MethodPost, lb.url+"/v1/answer",
			strings.NewReader(fmt.Sprintf(`{"question": %q, "method": "rag"}`, question(i))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Min-Epoch", fmt.Sprint(ing.Epoch))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var ans struct {
			Answer string `json:"answer"`
			Epoch  uint64 `json:"epoch"`
		}
		if err := decodeInto(resp, &ans); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if ans.Epoch < ing.Epoch {
			t.Fatalf("round %d: stale read — ingested at epoch %d, answered at epoch %d", i, ing.Epoch, ans.Epoch)
		}
		if !strings.Contains(ans.Answer, fmt.Sprintf("Zephyr%d", i)) {
			t.Fatalf("round %d: answer missing the just-ingested fact: %q", i, ans.Answer)
		}
		node := resp.Header.Get("X-Served-By")
		if node == "" {
			t.Fatalf("round %d: response missing X-Served-By", i)
		}
		servedBy[node]++
	}
	t.Logf("reads served by: %v", servedBy)

	var st lbStatus
	if err := getJSON(t, lb.url+"/v1/lb/status", &st); err != nil {
		t.Fatal(err)
	}
	if st.MinEpochReads != 40 {
		t.Fatalf("router counted %d min-epoch reads, want 40", st.MinEpochReads)
	}
}

// decodeInto reads an *http.Response body as JSON and closes it.
func decodeInto(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
