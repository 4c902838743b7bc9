package answer

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/world"
)

// setBTag opens the body of every prompt in the second prompt set, so a
// recorded prompt names the set it was rendered from.
const setBTag = "(prompt set B)"

// setBRegistry returns a registry whose active set is the embedded
// version 1 of every prompt, plus a candidate version 2 of each that is
// the same template with setBTag in front of its body. It also returns
// the override that selects the whole second set.
func setBRegistry(t *testing.T) (*prompts.Registry, map[string]string) {
	t.Helper()
	files, err := filepath.Glob("../prompts/defaults/*.v1.prompt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no embedded prompt files found: %v", err)
	}
	dir := t.TempDir()
	setB := map[string]string{}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.Replace(string(data), "\nversion: 1\n", "\nversion: 2\ncandidate: true\n", 1)
		end := strings.Index(text[4:], "\n---\n") + 4 + len("\n---\n")
		text = text[:end] + setBTag + "\n" + text[end:]
		name := strings.TrimSuffix(filepath.Base(path), ".v1.prompt")
		if err := os.WriteFile(filepath.Join(dir, name+".v2.prompt"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		setB[name] = "2"
	}
	reg := prompts.NewRegistry()
	if err := reg.LoadDir(dir); err != nil {
		t.Fatalf("loading the second prompt set: %v", err)
	}
	return reg, setB
}

// hookClient records every prompt of a run and calls hook before it
// forwards the i-th call to the model.
type hookClient struct {
	llm.Client
	hook func(i int)

	mu      sync.Mutex
	prompts []string
}

func (c *hookClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	c.mu.Lock()
	i := len(c.prompts)
	c.prompts = append(c.prompts, req.Prompt)
	c.mu.Unlock()
	if c.hook != nil {
		c.hook(i)
	}
	return c.Client.Complete(ctx, req)
}

// take returns the prompts recorded since the last take.
func (c *hookClient) take() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.prompts
	c.prompts = nil
	return out
}

// viewQuery asks every method the same question, anchored for ToG. A
// person has more relations than ToG's beam, so ToG prunes with the LLM
// before it answers.
func viewQuery(t *testing.T) (Deps, Query) {
	t.Helper()
	deps, w := testDeps(t)
	person := w.Entities[w.OfKind(world.KindPerson)[0]]
	return deps, Query{Text: fmt.Sprintf("Where was %s born?", person.Name), Anchors: []string{person.Name}}
}

// checkSet fails unless every prompt was rendered from the named set.
func checkSet(t *testing.T, label string, ps []string, wantB bool) {
	t.Helper()
	if len(ps) == 0 {
		t.Errorf("%s: no LLM call recorded", label)
	}
	for i, p := range ps {
		if strings.Contains(p, setBTag) != wantB {
			t.Errorf("%s: call %d of %d rendered from the other prompt set (want set B: %v):\n%.200s", label, i+1, len(ps), wantB, p)
		}
	}
}

// TestOneViewPerRun: a run renders every prompt from the set that was
// active when it started. The client switches the registry to the second
// set during the run's first LLM call — the pseudo-graph completion of
// "ours", the first relation-pruning call of "tog", the first sample of
// "sc" — and every later call of that run must still render from the
// first set, while the next run renders from the second.
func TestOneViewPerRun(t *testing.T) {
	deps, q := viewQuery(t)
	for _, name := range Names() {
		reg, setB := setBRegistry(t)
		client := &hookClient{Client: deps.Client}
		d := deps
		d.Client, d.Prompts = client, reg
		ans, err := New(name, d)
		if err != nil {
			t.Fatal(err)
		}
		client.hook = func(i int) {
			if i > 0 {
				return
			}
			if err := reg.ApplyVersions(setB); err != nil {
				t.Error(err)
			}
		}
		res, err := ans.Answer(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		first := client.take()
		switch name {
		case "ours", "ours-gp", "tog", "sc":
			if len(first) < 2 {
				t.Errorf("%s: %d LLM calls, want a call after the switch", name, len(first))
			}
		}
		checkSet(t, name+" (switched mid-run)", first, false)
		if got := res.PromptVersions["answer-graph"]; got != "1" {
			t.Errorf("%s: result reports answer-graph@%s, want the version the run started with", name, got)
		}
		client.hook = nil
		if _, err := ans.Answer(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSet(t, name+" (next run)", client.take(), true)
	}
}

// TestPromptVersionsReachEveryCall: a query's prompt_versions override is
// what every LLM call of every method renders from, while a query without
// one renders from the active set.
func TestPromptVersionsReachEveryCall(t *testing.T) {
	deps, q := viewQuery(t)
	reg, setB := setBRegistry(t)
	client := &hookClient{Client: deps.Client}
	deps.Client, deps.Prompts = client, reg
	for _, name := range Names() {
		ans, err := New(name, deps)
		if err != nil {
			t.Fatal(err)
		}
		pinned := q
		pinned.PromptVersions = setB
		res, err := ans.Answer(context.Background(), pinned)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSet(t, name+" (override)", client.take(), true)
		for prompt, v := range setB {
			if res.PromptVersions[prompt] != v {
				t.Errorf("%s: result reports %s@%s, want the override's %s", name, prompt, res.PromptVersions[prompt], v)
			}
		}
		if _, err := ans.Answer(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSet(t, name+" (active set)", client.take(), false)
	}
}
