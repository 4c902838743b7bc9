package prompts

import (
	"embed"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// The versioned prompt registry. Every prompt the system sends is a
// .prompt file: the embedded defaults under defaults/ reproduce the
// paper's templates, and a -prompt-dir overlay can add or override
// versions at runtime. The registry is hot-reloadable (Reload re-reads
// the overlay atomically — a bad file rejects the reload and keeps the
// current set) and supports per-request version overrides for A/B tests.
// The active version set has a Fingerprint that joins cache/singleflight
// scopes exactly like the substrate epoch, and every cached answer records
// the fingerprint it rendered with, so after a reload that changes any
// prompt no answer rendered under the old set is served.

//go:embed defaults/*.prompt
var defaultsFS embed.FS

// Registry holds every loaded prompt version and the active selection.
type Registry struct {
	mu sync.RWMutex
	// versions maps name -> version -> prompt.
	versions map[string]map[int]*Prompt
	// pins are explicit SetActive selections; a pin that no longer
	// resolves after a reload is ignored until it resolves again.
	pins map[string]int
	// dir is the overlay directory Reload re-reads ("" = embedded only).
	dir string
	// view is the active set's one snapshot, fingerprint included:
	// rebuilt wherever the set can change — LoadDir, Reload, SetActive —
	// and nowhere else, so a reader pays for a pointer, not a resolve.
	view *View
}

// NewRegistry builds a registry over the embedded default prompt set.
// The embedded files are compile-time data validated by tests, so a load
// failure is a build defect and panics, like a bad regexp.MustCompile.
func NewRegistry() *Registry {
	r := &Registry{pins: map[string]int{}}
	versions, err := loadAll("")
	if err != nil {
		panic("prompts: embedded defaults are invalid: " + err.Error())
	}
	r.versions = versions
	r.rebuildViewLocked()
	return r
}

var defaultRegistry = sync.OnceValue(NewRegistry)

// Default returns the shared registry over the embedded defaults, for
// callers that do not thread an explicit registry.
func Default() *Registry { return defaultRegistry() }

// loadAll builds the name -> version -> prompt map from the embedded
// defaults plus an optional overlay dir. Overlay files may add new
// versions or replace an embedded (name, version) outright; a file's
// name is its identity, so no two files of one source can share one.
func loadAll(dir string) (map[string]map[int]*Prompt, error) {
	versions := map[string]map[int]*Prompt{}
	// load reads dir's *.prompt files through fsys; embedded ones record
	// "embedded" as their source, overlay ones their path.
	load := func(fsys fs.FS, dir string, embedded bool) error {
		files, err := fs.Glob(fsys, "*.prompt")
		if err != nil {
			return fmt.Errorf("prompts: %w", err)
		}
		for _, file := range files {
			data, err := fs.ReadFile(fsys, file)
			if err != nil {
				return fmt.Errorf("prompts: %w", err)
			}
			path := filepath.Join(dir, file)
			p, err := ParsePrompt(file, data)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			p.Source = path
			if embedded {
				p.Source = "embedded"
			}
			if versions[p.Name] == nil {
				versions[p.Name] = map[int]*Prompt{}
			}
			versions[p.Name][p.Version] = p
		}
		return nil
	}
	embedded, err := fs.Sub(defaultsFS, "defaults")
	if err != nil {
		return nil, fmt.Errorf("prompts: %w", err)
	}
	if err := load(embedded, "defaults", true); err != nil {
		return nil, err
	}
	if dir != "" {
		if info, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("prompts: %w", err)
		} else if !info.IsDir() {
			return nil, fmt.Errorf("prompts: %s is not a directory", dir)
		}
		if err := load(os.DirFS(dir), dir, false); err != nil {
			return nil, err
		}
	}
	for name := range requiredPrompts {
		if len(versions[name]) == 0 {
			return nil, fmt.Errorf("prompts: required prompt %q is missing", name)
		}
	}
	return versions, nil
}

// LoadDir overlays a prompt directory and remembers it for Reload. The
// swap is atomic: any invalid file rejects the whole load and the
// registry keeps serving its current set.
func (r *Registry) LoadDir(dir string) error {
	versions, err := loadAll(dir)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dir = dir
	r.versions = versions
	r.rebuildViewLocked()
	return nil
}

// Reload re-reads the overlay directory (a no-op without one). Like
// LoadDir, a failed reload leaves the current set untouched — the hot
// path never observes a half-loaded registry.
func (r *Registry) Reload() error {
	r.mu.RLock()
	dir := r.dir
	r.mu.RUnlock()
	if dir == "" {
		return nil
	}
	versions, err := loadAll(dir)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.versions = versions
	r.rebuildViewLocked()
	return nil
}

// Dir returns the overlay directory, if any.
func (r *Registry) Dir() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dir
}

// SetActive pins a prompt name to a specific version — the A/B switch.
// Pinning a candidate version is exactly how one arm of an experiment
// goes live; Reload keeps pins that still resolve.
func (r *Registry) SetActive(name string, version int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.versions[name] == nil {
		return fmt.Errorf("prompts: unknown prompt %q", name)
	}
	if r.versions[name][version] == nil {
		return fmt.Errorf("prompts: %s has no version %d", name, version)
	}
	r.pins[name] = version
	r.rebuildViewLocked()
	return nil
}

// ApplyVersions pins several names at once from a name -> version-string
// map (the wire form replay suite meta and request overrides use).
func (r *Registry) ApplyVersions(versions map[string]string) error {
	for name, vs := range versions {
		v, err := strconv.Atoi(vs)
		if err != nil {
			return fmt.Errorf("prompts: bad version %q for %s", vs, name)
		}
		if err := r.SetActive(name, v); err != nil {
			return err
		}
	}
	return nil
}

// activeLocked resolves a name's active version under the read lock:
// a resolving pin wins, else the highest non-candidate version, else the
// highest version (a name shipped only as candidates).
func (r *Registry) activeLocked(name string) *Prompt {
	vs := r.versions[name]
	if len(vs) == 0 {
		return nil
	}
	if pin, ok := r.pins[name]; ok {
		if p := vs[pin]; p != nil {
			return p
		}
	}
	var best, bestAny *Prompt
	for _, p := range vs {
		if bestAny == nil || p.Version > bestAny.Version {
			bestAny = p
		}
		if !p.Candidate && (best == nil || p.Version > best.Version) {
			best = p
		}
	}
	if best != nil {
		return best
	}
	return bestAny
}

// rebuildViewLocked replaces the kept View with one resolved from the
// current versions and pins. Callers hold mu for writing (or own a
// registry nobody else can see yet).
func (r *Registry) rebuildViewLocked() {
	active := make(map[string]*Prompt, len(r.versions))
	for name := range r.versions {
		if p := r.activeLocked(name); p != nil {
			active[name] = p
		}
	}
	r.view = newView(active)
}

// View returns the immutable snapshot of the active version set. Renders
// through a View are consistent even if the registry reloads mid-request.
// The registry keeps one View per active set: every call between two
// changes of the set (LoadDir, Reload, SetActive) returns the same
// pointer, so asking for it — or for its Fingerprint, as every cached
// request's scope does — costs a load, not a rebuild.
func (r *Registry) View() *View {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.view
}

// Resolve returns a View of the active set with the given version
// overrides applied, strictly: an unknown name or version errors, so a
// request asking for a prompt that does not exist fails fast instead of
// silently answering with a different prompt than its cache key claims.
// Overrides land in a copy; the kept View is never written to.
func (r *Registry) Resolve(overrides map[string]string) (*View, error) {
	if len(overrides) == 0 {
		return r.View(), nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	resolved := make(map[string]*Prompt, len(r.view.prompts)+len(overrides))
	for name, p := range r.view.prompts {
		resolved[name] = p
	}
	for name, vs := range overrides {
		ver, err := strconv.Atoi(vs)
		if err != nil {
			return nil, fmt.Errorf("prompts: bad version %q for %s", vs, name)
		}
		p := r.versions[name][ver]
		if p == nil {
			return nil, fmt.Errorf("prompts: no prompt %s@%d", name, ver)
		}
		resolved[name] = p
	}
	return newView(resolved), nil
}

// Fingerprint renders the active version set as a stable string
// ("answer-graph@1,cot@1,..."), the prompt analogue of the substrate
// epoch: it joins cache and singleflight scopes, and a cached answer is
// served only under the fingerprint it rendered with.
func (r *Registry) Fingerprint() string {
	return r.View().Fingerprint()
}

// Info describes one loaded prompt version for listings (/v1/prompts).
type Info struct {
	Name        string `json:"name"`
	Version     int    `json:"version"`
	Task        string `json:"task"`
	Description string `json:"description,omitempty"`
	Candidate   bool   `json:"candidate,omitempty"`
	Active      bool   `json:"active"`
	Source      string `json:"source"`
}

// List returns every loaded prompt version, sorted by name then version,
// with the active one per name flagged.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Info
	for _, name := range slices.Sorted(maps.Keys(r.versions)) {
		active := r.activeLocked(name)
		vs := r.versions[name]
		for _, n := range slices.Sorted(maps.Keys(vs)) {
			p := vs[n]
			out = append(out, Info{
				Name: p.Name, Version: p.Version, Task: requiredPrompts[name].task.String(),
				Description: p.Description, Candidate: p.Candidate,
				Active: active != nil && active.Version == p.Version,
				Source: p.Source,
			})
		}
	}
	return out
}

// View is an immutable active-prompt snapshot with typed render helpers
// for each pipeline slot.
type View struct {
	prompts     map[string]*Prompt
	fingerprint string
	versions    map[string]string
}

// newView takes ownership of prompts and renders its fingerprint and its
// version map once; nothing writes to any of them afterwards.
func newView(prompts map[string]*Prompt) *View {
	var b strings.Builder
	versions := make(map[string]string, len(prompts))
	for i, name := range slices.Sorted(maps.Keys(prompts)) {
		if i > 0 {
			b.WriteByte(',')
		}
		v := strconv.Itoa(prompts[name].Version)
		versions[name] = v
		b.WriteString(name)
		b.WriteByte('@')
		b.WriteString(v)
	}
	return &View{prompts: prompts, fingerprint: b.String(), versions: versions}
}

// render renders a required slot; registry validation guarantees the slot
// exists with exactly these vars, so failure here is a programmer error.
func (v *View) render(name string, vals map[string]string) string {
	p := v.prompts[name]
	if p == nil {
		panic("prompts: view has no prompt " + name)
	}
	s, err := p.Render(vals)
	if err != nil {
		panic(fmt.Sprintf("prompts: rendering %s@%d: %v", p.Name, p.Version, err))
	}
	return s
}

// PseudoGraph renders the Fig. 3 prompt: plan knowledge, then emit a
// Cypher knowledge graph for the question.
func (v *View) PseudoGraph(question string) string {
	return v.render("pseudo-graph", map[string]string{"question": question})
}

// DirectTriples renders the ablation prompt that asks for bare triples
// instead of Cypher.
func (v *View) DirectTriples(question string) string {
	return v.render("direct-triples", map[string]string{"question": question})
}

// Verify renders the Fig. 4 prompt: fix the pseudo-graph against the gold
// graph.
func (v *View) Verify(problem, goldGraph, graphToFix string) string {
	return v.render("verify", map[string]string{
		"problem": problem, "gold_graph": goldGraph, "graph_to_fix": graphToFix,
	})
}

// AnswerFromGraph renders the Fig. 5 prompt: answer the problem from the
// graph, marking the answer entity with {...}.
func (v *View) AnswerFromGraph(problem, graph string) string {
	return v.render("answer-graph", map[string]string{"problem": problem, "graph": graph})
}

// IO renders the standard input-output prompt.
func (v *View) IO(question string) string {
	return v.render("io", map[string]string{"question": question})
}

// CoT renders the chain-of-thought prompt.
func (v *View) CoT(question string) string {
	return v.render("cot", map[string]string{"question": question})
}

// ScoreRelations renders the ToG relation-pruning prompt.
func (v *View) ScoreRelations(question string, relations []string) string {
	return v.render("score-relations", map[string]string{
		"question": question, "relations": strings.Join(relations, "\n"),
	})
}

// Versions returns the view's name -> version map in wire form — what
// every Result, trace record and replay suite meta carries. The map is
// built once with the view and shared by every caller: it is immutable,
// and no caller may write to it.
func (v *View) Versions() map[string]string { return v.versions }

// Version returns one slot's active version (0 when absent).
func (v *View) Version(name string) int {
	if p := v.prompts[name]; p != nil {
		return p.Version
	}
	return 0
}

// Fingerprint returns the view's version set as a stable string
// ("answer-graph@1,cot@1,..."), rendered when the view was built.
func (v *View) Fingerprint() string { return v.fingerprint }
