package prompts

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// ioOverlay is a valid io prompt file, for overlay directories; its
// version is its file name's.
var ioOverlay = []byte(`---
description: overlay test version
---
[Task description]:
Answer the [problem] in one word. Mark your answer with "{ }".
[Task]:
[problem]: "{{question}}"
[answer]: `)

// TestRegistryKeepsOneView: between two changes of the active set the
// registry hands out one View — same pointer, fingerprint rendered with
// it — and each of the three places the set can change (SetActive,
// LoadDir, Reload) replaces it with one whose fingerprint has moved.
func TestRegistryKeepsOneView(t *testing.T) {
	r := NewRegistry()
	kept := func(when string) *View {
		t.Helper()
		v := r.View()
		resolved, err := r.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.View() != v || resolved != v {
			t.Fatalf("%s: consecutive View/Resolve(nil) calls returned different views", when)
		}
		if v.Fingerprint() != r.Fingerprint() {
			t.Fatalf("%s: registry fingerprint %q is not the kept view's %q", when, r.Fingerprint(), v.Fingerprint())
		}
		return v
	}
	v0 := kept("fresh registry")

	if err := r.SetActive("answer-graph", 2); err != nil {
		t.Fatal(err)
	}
	v1 := kept("after SetActive")
	if v1 == v0 || v1.Fingerprint() == v0.Fingerprint() || !strings.Contains(v1.Fingerprint(), "answer-graph@2") {
		t.Fatalf("SetActive kept the old view: %q -> %q", v0.Fingerprint(), v1.Fingerprint())
	}
	if v0.Version("answer-graph") != 1 {
		t.Fatal("SetActive wrote into a view already handed out")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "io.v3.prompt")
	if err := os.WriteFile(path, ioOverlay, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	v2 := kept("after LoadDir")
	if v2 == v1 || !strings.Contains(v2.Fingerprint(), "io@3") || !strings.Contains(v2.Fingerprint(), "answer-graph@2") {
		t.Fatalf("LoadDir kept the old view or lost the pin: %q", v2.Fingerprint())
	}

	// A reload that changes a version moves the fingerprint.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "io.v4.prompt"), ioOverlay, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	v3 := kept("after Reload")
	if v3 == v2 || !strings.Contains(v3.Fingerprint(), "io@4") {
		t.Fatalf("Reload kept the old view: %q", v3.Fingerprint())
	}

	// A rejected reload changes nothing, the kept view included.
	if err := os.WriteFile(filepath.Join(dir, "io.v5.prompt"), []byte("---\ndescription: torn\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err == nil {
		t.Fatal("Reload accepted a torn prompt file")
	}
	if kept("after a rejected Reload") != v3 {
		t.Fatal("a rejected reload replaced the view")
	}
}

// TestResolveOverridesLeaveKeptViewUntouched: overrides land in a copy.
// Handing the kept view's map to the override loop would repin every
// later request that renders from View().
func TestResolveOverridesLeaveKeptViewUntouched(t *testing.T) {
	r := NewRegistry()
	before := r.View()
	fp := before.Fingerprint()
	v, err := r.Resolve(map[string]string{"answer-graph": "2"})
	if err != nil {
		t.Fatal(err)
	}
	if v == before || v.Version("answer-graph") != 2 || !strings.Contains(v.Fingerprint(), "answer-graph@2") {
		t.Fatalf("override view: versions %v fingerprint %q", v.Versions(), v.Fingerprint())
	}
	if r.View() != before || before.Version("answer-graph") != 1 || before.Fingerprint() != fp || r.Fingerprint() != fp {
		t.Fatalf("Resolve wrote into the kept view: answer-graph@%d, fingerprint %q (was %q)",
			before.Version("answer-graph"), r.Fingerprint(), fp)
	}
	if _, err := r.Resolve(map[string]string{"answer-graph": "9"}); err == nil {
		t.Fatal("Resolve accepted a missing version")
	}
	if r.View() != before {
		t.Fatal("a failed Resolve replaced the view")
	}
}

// TestRegistryViewConcurrentWithChanges: readers on the request path
// (View, Fingerprint, Resolve with and without overrides) race reloads
// and pins; run under -race. Every view a reader sees is internally
// consistent: its fingerprint names the versions it renders.
func TestRegistryViewConcurrentWithChanges(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "io.v3.prompt"), ioOverlay, 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := r.View()
				want := "answer-graph@" + strconv.Itoa(v.Version("answer-graph")) + ","
				if !strings.HasPrefix(v.Fingerprint(), want) {
					t.Errorf("view renders answer-graph@%d under fingerprint %q", v.Version("answer-graph"), v.Fingerprint())
					return
				}
				_ = r.Fingerprint()
				ov, err := r.Resolve(map[string]string{"io": "1"})
				if err != nil || ov.Version("io") != 1 || !strings.Contains(ov.Fingerprint(), "io@1") {
					t.Errorf("Resolve under churn: %v %v", ov, err)
					return
				}
				if same, _ := r.Resolve(nil); same == nil {
					t.Error("Resolve(nil) returned no view")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := r.SetActive("answer-graph", 1+i%2); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			if err := r.Reload(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()
}
