package prompts

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// The .prompt file format, modelled on the dotprompt idiom: a frontmatter
// block between two "---" lines, then the template body verbatim. A
// file's identity is its name, <name>.v<version>.prompt, and its contract
// — the task the body must classify as, the {{var}} placeholders it takes
// and the markers it must keep — is its slot's, from requiredPrompts and
// taskMarkers below; the file states neither. The frontmatter holds the
// two things only a file can say, both optional, in a tiny strict subset
// of YAML (no nesting, no lists, no implicit typing), so a torn or
// doctored file fails to parse instead of loading with the wrong meaning:
//
//	---
//	description: Fig. 5 answer-from-graph prompt
//	candidate: true
//	---
//	[Task description]:
//	...body with {{problem}} and {{graph}} placeholders...
//
// The body is everything after the closing "---" line, byte for byte —
// including trailing spaces and the presence or absence of a final
// newline. Rendering substitutes {{var}} placeholders and nothing else,
// so the rendered prompt is exactly the body with values spliced in.

// Prompt is one parsed .prompt file: a named, versioned template for one
// of the pipeline's slots.
type Prompt struct {
	// Name is the slot ("pseudo-graph", "io", ...) the file name gives;
	// versions of the same name are alternatives for the same step.
	Name string
	// Version orders alternatives; the registry activates the highest
	// non-candidate version by default.
	Version int
	// Description is free-form provenance shown by GET /v1/prompts.
	Description string
	// Candidate is the A/B latch: a candidate version loads and can be
	// selected (SetActive or a per-request override) but never becomes
	// active by default.
	Candidate bool
	// Body is the template text, verbatim.
	Body string
	// Source records where the loader read this prompt from ("embedded"
	// or a file path). It is loader metadata, not frontmatter: ParsePrompt
	// leaves it empty.
	Source string
}

// requiredPrompts is the pipeline's prompt contract, one slot per name:
// the task a body must classify as and exactly the vars its View
// accessor renders with. Every registry holds at least one version of
// each slot, so the typed View accessors are total, and a file whose
// name has no slot is refused.
var requiredPrompts = map[string]struct {
	task TaskKind
	vars []string
}{
	"pseudo-graph":    {TaskPseudoGraph, []string{"question"}},
	"direct-triples":  {TaskDirectTriples, []string{"question"}},
	"verify":          {TaskVerify, []string{"problem", "gold_graph", "graph_to_fix"}},
	"answer-graph":    {TaskGraphQA, []string{"problem", "graph"}},
	"io":              {TaskIO, []string{"question"}},
	"cot":             {TaskCoT, []string{"question"}},
	"score-relations": {TaskScoreRels, []string{"question", "relations"}},
}

// taskMarkers is the canonical marker invariant per task: the substrings
// the simulated LLM's Classify dispatch and extractors require. Every
// version of a prompt must keep its task's markers, or a hot-reloaded
// file would silently break the model's task recognition.
var taskMarkers = map[TaskKind][]string{
	TaskPseudoGraph:   {MarkerCypher, MarkerQuestion},
	TaskDirectTriples: {MarkerDirect, MarkerQuestion},
	TaskVerify:        {MarkerProblem, MarkerGold, MarkerToFix, MarkerFixed},
	TaskGraphQA:       {MarkerProblem, MarkerGraphQA, MarkerAnswer},
	TaskCoT:           {MarkerCoT, MarkerProblem, MarkerAnswer},
	TaskIO:            {MarkerProblem, MarkerAnswer},
	TaskScoreRels:     {MarkerProblem, MarkerScoreRels},
}

// removedKeys are the frontmatter keys earlier versions of the format
// carried, with what states each now, so an old file is refused with
// its fix in the message.
var removedKeys = map[string]string{
	"name":        "the file name <name>.v<version>.prompt states it",
	"version":     "the file name <name>.v<version>.prompt states it",
	"task":        "the slot of the file's name states it",
	"vars":        "the slot of the file's name states them",
	"markers":     "the slot's task states them",
	"temperature": "nothing reads it; delete the line",
}

// ParsePrompt parses one .prompt file, given its base name and contents.
// It is strict: a name that is not <name>.v<version>.prompt with a
// canonical version, missing fences, unknown, removed or duplicate keys
// and malformed values are all errors, and the result must pass
// Validate — ParsePrompt returns a valid Prompt or a clean error, never
// a partial result.
func ParsePrompt(file string, data []byte) (*Prompt, error) {
	stem, ok := strings.CutSuffix(file, ".prompt")
	i := strings.LastIndex(stem, ".v")
	if !ok || i < 0 {
		return nil, fmt.Errorf("prompts: file name %q is not <name>.v<version>.prompt", file)
	}
	p := &Prompt{Name: stem[:i]}
	vs := stem[i+2:]
	p.Version, _ = strconv.Atoi(vs) // a failed parse leaves 0, refused below
	if p.Version < 1 || strconv.Itoa(p.Version) != vs {
		return nil, fmt.Errorf("prompts: version %q in file name %q is not a canonical positive integer", vs, file)
	}
	const fence = "---"
	rest, ok := strings.CutPrefix(string(data), fence+"\n")
	if !ok {
		return nil, fmt.Errorf("prompts: file must start with %q frontmatter fence", fence)
	}
	seen := map[string]bool{}
	for {
		line, tail, found := strings.Cut(rest, "\n")
		if !found {
			return nil, fmt.Errorf("prompts: unterminated frontmatter (no closing %q)", fence)
		}
		rest = tail
		if line == fence {
			break
		}
		key, raw, found := strings.Cut(line, ":")
		if !found || key == "" || strings.TrimSpace(key) != key {
			return nil, fmt.Errorf("prompts: malformed frontmatter line %q", line)
		}
		if why, ok := removedKeys[key]; ok {
			return nil, fmt.Errorf("prompts: frontmatter key %q was removed: %s", key, why)
		}
		if key != "description" && key != "candidate" {
			return nil, fmt.Errorf("prompts: unknown frontmatter key %q", key)
		}
		if seen[key] {
			return nil, fmt.Errorf("prompts: duplicate frontmatter key %q", key)
		}
		seen[key] = true
		val, err := parseValue(strings.TrimPrefix(raw, " "))
		if err != nil {
			return nil, fmt.Errorf("prompts: %s: %w", key, err)
		}
		if key == "description" {
			p.Description = val
		} else if p.Candidate, err = strconv.ParseBool(val); err != nil {
			return nil, fmt.Errorf("prompts: candidate %q is not a bool", val)
		}
	}
	p.Body = rest
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseValue interprets one scalar: a leading double quote selects Go
// string syntax (the only way to carry values with leading/trailing
// spaces, quotes, or colons safely), anything else is taken verbatim.
func parseValue(s string) (string, error) {
	if strings.HasPrefix(s, `"`) {
		v, err := strconv.Unquote(s)
		if err != nil {
			return "", fmt.Errorf("bad quoted value %s", s)
		}
		return v, nil
	}
	if s != strings.TrimSpace(s) {
		return "", fmt.Errorf("unquoted value %q has surrounding space (quote it)", s)
	}
	return s, nil
}

// Validate checks the body against the slot of the prompt's name: its
// placeholders exactly the slot's vars, the task's canonical markers
// present, the body classifying as the slot's task, and the extractor
// round trip succeeding on a probe render.
func (p *Prompt) Validate() error {
	slot, ok := requiredPrompts[p.Name]
	if !ok {
		return fmt.Errorf("prompts: %s@%d: no prompt slot is named %q", p.Name, p.Version, p.Name)
	}
	placeholders, err := scanPlaceholders(p.Body)
	if err != nil {
		return fmt.Errorf("prompts: %s@%d: %w", p.Name, p.Version, err)
	}
	if len(placeholders) != len(slot.vars) || slices.ContainsFunc(slot.vars, func(v string) bool { return !placeholders[v] }) {
		return fmt.Errorf("prompts: %s@%d: body uses %v, slot %q takes exactly %v",
			p.Name, p.Version, slices.Sorted(maps.Keys(placeholders)), p.Name, slot.vars)
	}
	for _, m := range taskMarkers[slot.task] {
		if !strings.Contains(p.Body, m) {
			return fmt.Errorf("prompts: %s@%d: task %s requires marker %q in the body", p.Name, p.Version, slot.task, m)
		}
	}
	if got := Classify(p.Body); got != slot.task {
		return fmt.Errorf("prompts: %s@%d: body classifies as %s, slot %q requires %s", p.Name, p.Version, got, p.Name, slot.task)
	}
	return p.probeExtractors(slot.task, slot.vars)
}

// probeExtractors renders the prompt with sentinel values and asserts the
// package extractors recover them — the load-time proof that a prompt
// edit cannot strand the simulated LLM's prompt parsing.
func (p *Prompt) probeExtractors(task TaskKind, vars []string) error {
	const probe = "__prompt_probe_question__?"
	fill := func(graph string) map[string]string {
		vals := map[string]string{}
		for _, v := range vars {
			switch v {
			case "question", "problem":
				vals[v] = probe
			case "relations":
				vals[v] = "rel/alpha\nrel/beta"
			default: // graph-shaped slots
				vals[v] = graph
			}
		}
		return vals
	}
	rendered, err := p.Render(fill("<a> <b> <c>"))
	if err != nil {
		return fmt.Errorf("prompts: %s@%d: probe render: %w", p.Name, p.Version, err)
	}
	fail := func(what string, err error) error {
		return fmt.Errorf("prompts: %s@%d: %s extraction failed on probe render: %w", p.Name, p.Version, what, err)
	}
	switch task {
	case TaskPseudoGraph, TaskDirectTriples:
		q, err := ExtractTaskQuestion(rendered)
		if err != nil {
			return fail("question", err)
		}
		if q != probe {
			return fmt.Errorf("prompts: %s@%d: question extracted as %q, want the probe", p.Name, p.Version, q)
		}
	case TaskVerify:
		parts, err := ExtractVerifyParts(rendered)
		if err != nil {
			return fail("verify-parts", err)
		}
		if parts.Problem != probe || parts.GoldGraph != "<a> <b> <c>" || parts.ToFix != "<a> <b> <c>" {
			return fmt.Errorf("prompts: %s@%d: verify parts did not round-trip (%+v)", p.Name, p.Version, parts)
		}
	case TaskGraphQA:
		parts, err := ExtractGraphQAParts(rendered)
		if err != nil {
			return fail("graph-qa parts", err)
		}
		if parts.Problem != probe || parts.Graph != "<a> <b> <c>" {
			return fmt.Errorf("prompts: %s@%d: graph-qa parts did not round-trip (%+v)", p.Name, p.Version, parts)
		}
		// An empty graph must survive too: graph-backed answering falls
		// back to parametric knowledge on exactly this case.
		empty, err := p.Render(fill(""))
		if err != nil {
			return fail("empty-graph render", err)
		}
		ep, err := ExtractGraphQAParts(empty)
		if err != nil {
			return fail("empty-graph parts", err)
		}
		if ep.Graph != "" {
			return fmt.Errorf("prompts: %s@%d: empty graph round-tripped as %q", p.Name, p.Version, ep.Graph)
		}
	case TaskIO, TaskCoT:
		q, err := ExtractProblem(rendered)
		if err != nil {
			return fail("problem", err)
		}
		if q != probe {
			return fmt.Errorf("prompts: %s@%d: problem extracted as %q, want the probe", p.Name, p.Version, q)
		}
	case TaskScoreRels:
		q, rels, err := ExtractScoreRelations(rendered)
		if err != nil {
			return fail("score-relations", err)
		}
		if q != probe || len(rels) != 2 || rels[0] != "rel/alpha" || rels[1] != "rel/beta" {
			return fmt.Errorf("prompts: %s@%d: score-relations did not round-trip (q=%q rels=%v)", p.Name, p.Version, q, rels)
		}
	}
	return nil
}

// Render substitutes {{var}} placeholders with the given values. Every
// placeholder must have a value; nothing else in the body is touched, and
// substituted values are never re-scanned (a question containing "{{" is
// data, not a template).
func (p *Prompt) Render(vals map[string]string) (string, error) {
	var b strings.Builder
	body := p.Body
	for {
		i := strings.Index(body, "{{")
		if i < 0 {
			b.WriteString(body)
			return b.String(), nil
		}
		j := strings.Index(body[i:], "}}")
		if j < 0 {
			return "", fmt.Errorf("unclosed {{ placeholder")
		}
		name := body[i+2 : i+j]
		val, ok := vals[name]
		if !ok {
			return "", fmt.Errorf("no value for {{%s}}", name)
		}
		b.WriteString(body[:i])
		b.WriteString(val)
		body = body[i+j+2:]
	}
}

// scanPlaceholders collects the {{var}} names used in a body.
func scanPlaceholders(body string) (map[string]bool, error) {
	out := map[string]bool{}
	for {
		i := strings.Index(body, "{{")
		if i < 0 {
			return out, nil
		}
		j := strings.Index(body[i:], "}}")
		if j < 0 {
			return nil, fmt.Errorf("unclosed {{ placeholder")
		}
		out[body[i+2:i+j]] = true
		body = body[i+j+2:]
	}
}
