package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The test binary doubles as the children: with helperEnv set it behaves
// as a trivially failing server or as one that never becomes ready.
const helperEnv = "BENCHMARK_TEST_CHILD"

func TestMain(m *testing.M) {
	switch os.Getenv(helperEnv) {
	case "fail":
		os.Stderr.WriteString("child: cannot bind, giving up\n")
		os.Exit(3)
	case "hang":
		time.Sleep(time.Hour)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// running counts children that have not been reaped.
func (r *rig) running() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.procs {
		select {
		case <-p.done:
		default:
			n++
		}
	}
	return n
}

func testRig(t *testing.T) *rig {
	t.Helper()
	dir := t.TempDir()
	r := &rig{root: dir, runDir: filepath.Join(dir, "run"), logDir: filepath.Join(dir, "logs")}
	if err := os.MkdirAll(r.runDir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	return r
}

func TestFailingChildLeavesNothingRunning(t *testing.T) {
	r := testRig(t)
	t.Setenv(helperEnv, "fail")
	p, err := r.start("failing", os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	p.url = "http://127.0.0.1:1" // nothing listens there
	err = r.await(p, healthy, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "exited before becoming ready") {
		t.Fatalf("await on a child that exits at once: %v", err)
	}
	if n := r.running(); n != 0 {
		t.Errorf("%d child(ren) still running after the failure", n)
	}
	// Failure is the one case where a child's output is kept.
	raw, readErr := os.ReadFile(filepath.Join(r.logDir, "failing.log"))
	if readErr != nil || !strings.Contains(string(raw), "cannot bind") {
		t.Errorf("kept log = %q, %v; want the child's stderr", raw, readErr)
	}
}

func TestCloseKillsChildrenAndRemovesRunDir(t *testing.T) {
	r := testRig(t)
	t.Setenv(helperEnv, "hang")
	var procs []*proc
	for _, name := range []string{"a", "b"} {
		p, err := r.start(name, os.Args[0])
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	if _, err := r.tempDir("data"); err != nil {
		t.Fatal(err)
	}
	if n := r.running(); n != 2 {
		t.Fatalf("%d children running, want 2", n)
	}
	r.close()
	for _, p := range procs {
		select {
		case <-p.done:
		default:
			t.Errorf("child %s not reaped by close", p.name)
		}
		// Signal 0 probes for existence; a reaped child is gone.
		if err := p.cmd.Process.Signal(os.Signal(nil)); err == nil {
			t.Errorf("child %s (pid %d) still exists", p.name, p.cmd.Process.Pid)
		}
	}
	if _, err := os.Stat(r.runDir); !os.IsNotExist(err) {
		t.Errorf("run directory still there after close: %v", err)
	}
	if _, err := r.start("late", os.Args[0]); err == nil {
		t.Error("start on a closed rig succeeded; a child started after teardown would leak")
	}
	r.close() // a second close is harmless
}

func TestNeverReadyChildFailsAtTheDeadline(t *testing.T) {
	r := testRig(t)
	t.Setenv(helperEnv, "hang")
	p, err := r.start("hanging", os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	never := func(*proc) bool { return false }
	if err := r.await(p, never, 50*time.Millisecond); err == nil || !strings.Contains(err.Error(), "not ready after") {
		t.Fatalf("await past its deadline: %v", err)
	}
	p.kill()
	if n := r.running(); n != 0 {
		t.Errorf("%d child(ren) still running", n)
	}
}

func TestProcAccountingReadsThisProcess(t *testing.T) {
	cpu, err := cpuSeconds(os.Getpid())
	if err != nil || cpu < 0 {
		t.Errorf("cpuSeconds(self) = %v, %v", cpu, err)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil || rss <= 0 {
		t.Errorf("peakRSSMB(self) = %v, %v", rss, err)
	}
	if _, err := cpuSeconds(1 << 30); err == nil {
		t.Error("cpuSeconds of a pid that cannot exist succeeded")
	}
}
