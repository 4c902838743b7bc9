package prompts

import (
	"strings"
	"testing"
)

// TestParsePromptErrors holds the parser to its clean-error contract on
// the corpus of doctored files the prompt-lint CI job guards against.
func TestParsePromptErrors(t *testing.T) {
	valid := string(mustEmbedded(t, "defaults/io.v1.prompt"))
	withKey := func(line string) string { return strings.Replace(valid, "---\n", "---\n"+line+"\n", 1) }
	cases := []struct {
		name string
		file string
		data string
		want string // substring of the error
	}{
		{"empty", "io.v1.prompt", "", "frontmatter fence"},
		{"no-fence", "io.v1.prompt", "description: io\n", "frontmatter fence"},
		{"torn", "io.v1.prompt", "---\ndescription: io\n", "unterminated"},
		{"duplicate-key", "io.v1.prompt", withKey("candidate: true\ncandidate: false"), "duplicate"},
		{"unknown-key", "io.v1.prompt", withKey("model: gpt"), "unknown frontmatter key"},
		{"list-outside", "io.v1.prompt", "---\n  - stray\n---\nbody", "malformed frontmatter line"},
		{"scalar-list", "io.v1.prompt", withKey("markers: inline"), `"markers" was removed: the slot`},
		{"bad-candidate", "io.v1.prompt", withKey("candidate: maybe"), "not a bool"},
		{"bad-task", "io.v1.prompt", withKey("task: what"), `"task" was removed: the slot`},
		{"removed-name", "io.v1.prompt", withKey("name: io"), `"name" was removed: the file name`},
		{"removed-version", "io.v1.prompt", withKey("version: 1"), `"version" was removed: the file name`},
		{"removed-vars", "io.v1.prompt", withKey("vars:\n  - question"), `"vars" was removed: the slot`},
		{"removed-temperature", "io.v1.prompt", withKey("temperature: 0"), `"temperature" was removed: nothing reads it`},
		{"no-version", "io.prompt", valid, "not <name>.v<version>.prompt"},
		{"not-a-prompt", "io.v1.txt", valid, "not <name>.v<version>.prompt"},
		{"bad-version", "io.vone.prompt", valid, "not a canonical"},
		{"leading-zero", "io.v01.prompt", valid, "not a canonical"},
		{"signed-version", "io.v+1.prompt", valid, "not a canonical"},
		{"zero-version", "io.v0.prompt", valid, "not a canonical"},
		{"bad-name", "IO!.v1.prompt", valid, `no prompt slot is named "IO!"`},
		{"no-slot", "chat.v1.prompt", valid, `no prompt slot is named "chat"`},
		{"other-slot", "answer-graph.v3.prompt", valid, `slot "answer-graph" takes exactly [problem graph]`},
		{"task-mismatch", "cot.v3.prompt", valid, "task cot requires marker"},
		{"missing-marker", "io.v1.prompt", strings.ReplaceAll(valid, "[answer]:", "(answer)"), "marker"},
		{"undeclared-var", "io.v1.prompt", strings.Replace(valid, "{{question}}", "{{question}} {{extra}}", 1), "takes exactly [question]"},
		{"unused-var", "io.v1.prompt", strings.Replace(valid, "{{question}}", "question", 1), "takes exactly [question]"},
		{"unclosed-placeholder", "io.v1.prompt", strings.Replace(valid, "{{question}}", "{{question", 1), "unclosed"},
		{"classifies-as-other-task", "io.v1.prompt", valid + "Let's think step by step.", "body classifies as cot"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := ParsePrompt(c.file, []byte(c.data))
			if err == nil {
				t.Fatalf("ParsePrompt accepted a %s file", c.name)
			}
			if p != nil {
				t.Fatal("ParsePrompt returned both a prompt and an error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestParsePromptIdentity: a file's name and version are its file name's,
// its description and candidate latch its frontmatter's.
func TestParsePromptIdentity(t *testing.T) {
	data := mustEmbedded(t, "defaults/answer-graph.v2.prompt")
	p, err := ParsePrompt("answer-graph.v12.prompt", data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "answer-graph" || p.Version != 12 || !p.Candidate ||
		!strings.HasPrefix(p.Description, "Candidate rewording") || !strings.HasPrefix(p.Body, "[Task description]:\n") {
		t.Fatalf("parsed %+v", p)
	}
}

func mustEmbedded(t testing.TB, path string) []byte {
	t.Helper()
	data, err := defaultsFS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzParsePrompt holds the parser's contract under arbitrary file names
// and contents: it never panics, and it returns either an error with a
// nil prompt or a prompt that renders with its slot's vars and
// classifies as its slot's task.
func FuzzParsePrompt(f *testing.F) {
	// Seed with every embedded default plus one file each with a removed
	// key (a scalar and a list), a torn fence, a non-canonical version and
	// a name with no slot.
	files, err := defaultsFS.ReadDir("defaults")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range files {
		f.Add(e.Name(), mustEmbedded(f, "defaults/"+e.Name()))
	}
	io := mustEmbedded(f, "defaults/io.v1.prompt")
	f.Add("io.v1.prompt", []byte(strings.Replace(string(io), "---\n", "---\ntemperature: 0\n", 1)))
	f.Add("io.v1.prompt", []byte(strings.Replace(string(io), "---\n", "---\nmarkers:\n  - \"[answer]:\"\n", 1)))
	f.Add("io.v1.prompt", io[:len("---\ndescription: ")])
	f.Add("io.v01.prompt", io)
	f.Add("chat.v1.prompt", io)

	f.Fuzz(func(t *testing.T, file string, data []byte) {
		p, err := ParsePrompt(file, data)
		if err != nil {
			if p != nil {
				t.Fatal("ParsePrompt returned both a prompt and an error")
			}
			return
		}
		slot, ok := requiredPrompts[p.Name]
		if !ok {
			t.Fatalf("parsed a prompt named %q, which has no slot", p.Name)
		}
		// A NUL value cannot complete or split a marker, so the render
		// classifies as the body does.
		vals := map[string]string{}
		for _, v := range slot.vars {
			vals[v] = "\x00"
		}
		rendered, err := p.Render(vals)
		if err != nil {
			t.Fatalf("%s@%d does not render with its slot's vars %v: %v", p.Name, p.Version, slot.vars, err)
		}
		if got := Classify(rendered); got != slot.task {
			t.Fatalf("%s@%d renders as %s, its slot's task is %s", p.Name, p.Version, got, slot.task)
		}
	})
}
