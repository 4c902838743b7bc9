package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file is the rig's process hygiene: building the real binaries,
// launching them on free loopback ports, readiness polling with a
// deadline, /proc accounting, and — on every exit path including SIGINT —
// killing each child, waiting for it, and removing the work directory.

// workRoot is where everything the benchmark builds or writes while
// running lives, relative to the repository root: binaries, data dirs,
// temp files. The root .gitignore names it.
const workRoot = ".bench_build"

// rig owns the children and temp dirs of one benchmark process.
type rig struct {
	root   string // repository root (holds go.mod)
	binDir string
	runDir string // this process's scratch under workRoot, removed on close
	logDir string // where a failed child's output is kept
	buildS float64
	// control is the control server every measured phase is interleaved
	// with (control.go); nil until startControl.
	control *controlServer
	mu      sync.Mutex
	procs   []*proc
	closed  bool
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(raw)), "module repro") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "pgakvd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the repro module: no go.mod with cmd/pgakvd above the working directory")
		}
		dir = parent
	}
}

// newRig locates the repository, builds cmd/pgakvd and cmd/pgakvlb into
// the work directory and arms the SIGINT/SIGTERM cleanup.
func newRig() (*rig, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	r := &rig{
		root:   root,
		binDir: filepath.Join(root, workRoot, "bin"),
		logDir: filepath.Join(root, "benchmark", "results", "logs"),
	}
	if err := os.MkdirAll(r.binDir, 0o755); err != nil {
		return nil, err
	}
	if r.runDir, err = os.MkdirTemp(filepath.Join(root, workRoot), "run-"); err != nil {
		return nil, err
	}
	r.trapSignals()
	start := time.Now()
	// -buildvcs=false: the checkout a harness builds in need not be a git
	// repository, and may sit inside an unrelated one.
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", r.binDir+string(filepath.Separator), "./cmd/pgakvd", "./cmd/pgakvlb")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		r.close()
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	r.buildS = time.Since(start).Seconds()
	return r, nil
}

// trapSignals makes an interrupt take the same teardown path as a normal
// exit: every child killed and reaped, the run directory removed.
func (r *rig) trapSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		r.close()
		os.Exit(130)
	}()
}

// tempDir makes a fresh directory under the run directory.
func (r *rig) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(r.runDir, prefix+"-")
}

// close kills and reaps every child still running and removes the run
// directory. Safe to call more than once and from the signal goroutine.
func (r *rig) close() {
	r.mu.Lock()
	procs := r.procs
	r.procs = nil
	already := r.closed
	r.closed = true
	r.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	if !already && r.runDir != "" {
		os.RemoveAll(r.runDir)
	}
}

// tailBuffer keeps the last max bytes a child wrote.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > b.max {
		b.buf = b.buf[len(b.buf)-b.max:]
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

// proc is one child process.
type proc struct {
	name string
	url  string // base URL when the child serves HTTP, else ""
	cmd  *exec.Cmd
	logs *tailBuffer
	done chan struct{} // closed once the child has been reaped
}

// start launches a child with its output captured in memory. The child is
// registered with the rig before start returns, so no exit path can miss
// it, and it is asked to die with this process should teardown never run.
func (r *rig) start(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, logs: &tailBuffer{max: 256 << 10}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = p.logs
	p.cmd.Stderr = p.logs
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("starting %s: rig is closed", name)
	}
	if err := p.cmd.Start(); err != nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	r.procs = append(r.procs, p)
	r.mu.Unlock()
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// startServer launches a binary from the build directory on a free
// loopback port and waits until ready reports true.
func (r *rig) startServer(name, bin string, port int, ready func(*proc) bool, args ...string) (*proc, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p, err := r.start(name, filepath.Join(r.binDir, bin), append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, err
	}
	p.url = "http://" + addr
	if err := r.await(p, ready, readyDeadline); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// readyDeadline bounds every readiness wait.
const readyDeadline = 60 * time.Second

// await polls ready until it holds, the child exits, or the deadline
// passes; on failure the child's output is kept under logDir.
func (r *rig) await(p *proc, ready func(*proc) bool, deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if ready(p) {
			return nil
		}
		select {
		case <-p.done:
			return r.fail(p, fmt.Errorf("%s exited before becoming ready", p.name))
		case <-time.After(10 * time.Millisecond):
		}
	}
	return r.fail(p, fmt.Errorf("%s not ready after %v", p.name, deadline))
}

// fail keeps a child's captured output on disk and returns err annotated
// with where it went. Output of children that never fail is dropped.
func (r *rig) fail(p *proc, err error) error {
	if mkErr := os.MkdirAll(r.logDir, 0o755); mkErr != nil {
		return fmt.Errorf("%w (and could not keep its log: %v)", err, mkErr)
	}
	path := filepath.Join(r.logDir, p.name+".log")
	if wErr := os.WriteFile(path, []byte(p.logs.String()), 0o644); wErr != nil {
		return fmt.Errorf("%w (and could not keep its log: %v)", err, wErr)
	}
	return fmt.Errorf("%w; output kept in %s", err, path)
}

// kill delivers SIGKILL and waits for the child to be reaped.
func (p *proc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	<-p.done
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// adminClient serves readiness probes, metric scrapes and post-run checks
// — everything that is not measured load.
var adminClient = &http.Client{Timeout: 30 * time.Second}

// getJSON fetches url and decodes a 200 body into out.
func getJSON(url string, out any) error {
	resp, err := adminClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// healthy is the readiness probe of every server: /healthz answers 200.
func healthy(p *proc) bool {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := adminClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// caughtUp is the readiness probe of a replica: healthy and every applier
// connected with zero lag.
func caughtUp(p *proc) bool {
	if !healthy(p) {
		return false
	}
	var m serverMetrics
	if err := getJSON(p.url+"/v1/metrics", &m); err != nil {
		return false
	}
	return m.Replication != nil && m.Replication.CaughtUp
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// 100 on every Linux the benchmark runs on.
const clockTick = 100

// cpuSeconds reads utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat for pid %d", pid)
	}
	fields := strings.Fields(string(raw[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short stat for pid %d", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(fields[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable stat times for pid %d", pid)
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB reads VmHWM of a process from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable VmHWM for pid %d: %q", pid, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
