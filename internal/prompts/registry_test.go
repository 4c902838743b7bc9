package prompts

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// legacy* reconstruct the pre-registry Go-constant builders verbatim.
// The embedded v1 .prompt files must render byte-identically, or every
// simulated-LLM token count (and so every replay baseline) would shift.

const legacyPseudoGraphExamples = `[Example 1]:
{Question}: Who has the largest area of the Great Lakes in the United States?
<step 1> {Knowledge Planning}:
To answer the question we need the Great Lakes, their individual areas, and the states they are located in.
<step 2> {Knowledge Graph}:
CREATE (superior:Lake {name: 'Lake Superior', area: 82000})
CREATE (michigan:Lake {name: 'Lake Michigan', area: 58000})
CREATE (huron:Lake {name: 'Lake Huron', area: 23000})
CREATE (ontario:Lake {name: 'Lake Ontario', area: 19000})
CREATE (erie:Lake {name: 'Lake Erie', area: 9600})
[Example 2]:
{Question}: Who covers more countries, the Andes or the Himalayas?
<step 1> {Knowledge Planning}:
I need the Andes and the Himalayas, and the countries they span.
<step 2> {Knowledge Graph}:
CREATE (andes:MountainRange {name: "Andes"})
CREATE (himalayas:MountainRange {name: "Himalayas"})
CREATE (andes)-[:COVERS]->(ecuador:Country {name: "Ecuador"})
CREATE (andes)-[:COVERS]->(peru:Country {name: "Peru"})
CREATE (himalayas)-[:COVERS]->(india:Country {name: "India"})
CREATE (himalayas)-[:COVERS]->(nepal:Country {name: "Nepal"})
`

func legacyPseudoGraph(question string) string {
	var b strings.Builder
	b.WriteString("[Task description]:\n")
	b.WriteString("You should answer the {Question} in the following steps:\n")
	b.WriteString("<step 1> Find out what {Knowledge Planning} you need to solve the {Question}\n")
	b.WriteString("<step 2> Strictly fill the {Knowledge Planning} to construct the {Knowledge Graph} as complete as possible " + MarkerCypher + "\n")
	b.WriteString(legacyPseudoGraphExamples)
	b.WriteString("[Task]:\n")
	b.WriteString(MarkerQuestion + " " + question + "\n")
	return b.String()
}

func legacyDirectTriples(question string) string {
	var b strings.Builder
	b.WriteString("[Task description]:\n")
	b.WriteString("You should answer the {Question} by listing the facts you need. ")
	b.WriteString("Please " + MarkerDirect + " in the form <subject> <relation> <object>, one per line.\n")
	b.WriteString("[Example 1]:\n")
	b.WriteString(MarkerQuestion + " Who has the largest area of the Great Lakes in the United States?\n")
	b.WriteString("<Lake Superior> <area> <82000>\n<Lake Michigan> <area> <58000>\n<Lake Huron> <area> <23000>\n")
	b.WriteString("[Example 2]:\n")
	b.WriteString(MarkerQuestion + " Who covers more countries, the Andes or the Himalayas?\n")
	b.WriteString("<Andes> <covers> <Peru>\n<Andes> <covers> <Chile>\n<Himalayas> <covers> <India>\n<Himalayas> <covers> <Nepal>\n")
	b.WriteString("[Task]:\n")
	b.WriteString(MarkerQuestion + " " + question + "\n")
	return b.String()
}

const legacyVerifyExamples = `[Example]:
[problem]: "Who has the largest area of the Great Lakes in the United States?"
"gold graph":
[entity_0]:
<Lake Superior> <area> <82350>
<Lake Superior> <connects with> <Keweenaw Waterway>
[entity_1]:
<Lake Michigan> <area> <57750>
"graph to fix":
<Lake Superior> <AREA> <82000>
<Lake Michigan> <AREA> <58000>
<Dongting Lake> <AREA> <259430>
"Fixed graph":
<Lake Superior> <area> <82350>
<Lake Michigan> <area> <57750>
[Example]:
[problem]: "What is the population of China?"
"gold graph":
[entity_0]:
<China> <population> <1375198619>
<China> <population> <1443497378>
"graph to fix":
<China> <Number of population> <1463725000>
"Fixed graph":
<China> <population> <1443497378>
`

func legacyVerify(problem, goldGraph, graphToFix string) string {
	var b strings.Builder
	b.WriteString("[Task description]:\n")
	b.WriteString(`Please based the "gold graph" below deleting redundant content from "graph to fix" and adding missing content to help me solve the [problem].` + "\n")
	b.WriteString(legacyVerifyExamples)
	b.WriteString("[Task]:\n")
	b.WriteString(`If "graph to fix" has triples that are not in the "gold graph", just delete them! If they conflict, replace them with the ones in the "gold graph". For time-varying triples the "gold graph" lists values in chronological order, so pick the last one.` + "\n")
	b.WriteString(MarkerProblem + " \"" + problem + "\"\n")
	b.WriteString(MarkerGold + "\n" + goldGraph + "\n")
	b.WriteString(MarkerToFix + "\n" + graphToFix + "\n")
	b.WriteString(MarkerFixed + "\n")
	return b.String()
}

const legacyAnswerExamples = `[Example]:
[problem]: "What is the population of China?"
[graph]:
<China> <population> <1442965000>
<China> <population> <1443497378>
[answer]: Based on the [graph] above, the population of China is {1443497378}.
[Example]:
[problem]: "Who has the largest area of the Great Lakes in the United States?"
[graph]:
<Lake Superior> <area> <82350>
<Lake Michigan> <area> <57750>
[answer]: Based on the [graph] above, the largest of the Great Lakes is {Lake Superior} which area is 82,350.
`

func legacyAnswerFromGraph(problem, graph string) string {
	var b strings.Builder
	b.WriteString("[Task description]:\n")
	b.WriteString("Please use the [graph] below to answer the [problem]. You need to mark your answer with \"{ }\".\n")
	b.WriteString(legacyAnswerExamples)
	b.WriteString("[Task]:\n")
	b.WriteString("For time-varying triples the [graph] lists values in chronological order, so pick the last one. If [graph] has no triples, answer with your own knowledge.\n")
	b.WriteString(MarkerProblem + " \"" + problem + "\"\n")
	b.WriteString(MarkerGraphQA + "\n" + graph + "\n")
	b.WriteString(MarkerAnswer + " ")
	return b.String()
}

var legacyIOExamples = []string{
	`[problem]: "What is the capital of France?"` + "\n[answer]: The capital of France is {Paris}.",
	`[problem]: "Who wrote Hamlet?"` + "\n[answer]: Hamlet was written by {William Shakespeare}.",
	`[problem]: "What is the population of China?"` + "\n[answer]: The population of China is {1443497378}.",
	`[problem]: "Which river flows through Cairo?"` + "\n[answer]: The river that flows through Cairo is the {Nile}.",
	`[problem]: "When was the University of Oxford established?"` + "\n[answer]: The University of Oxford was established in {1096}.",
	`[problem]: "Who founded Microsoft?"` + "\n[answer]: Microsoft was founded by {Bill Gates}.",
}

func legacyIO(question string) string {
	var b strings.Builder
	b.WriteString("[Task description]:\nAnswer the [problem]. Mark your answer with \"{ }\".\n")
	for _, ex := range legacyIOExamples {
		b.WriteString("[Example]:\n" + ex + "\n")
	}
	b.WriteString("[Task]:\n" + MarkerProblem + " \"" + question + "\"\n" + MarkerAnswer + " ")
	return b.String()
}

func legacyCoT(question string) string {
	var b strings.Builder
	b.WriteString("[Task description]:\nAnswer the [problem]. First reason, then mark your answer with \"{ }\". Let's " + MarkerCoT + ".\n")
	for _, ex := range legacyIOExamples {
		b.WriteString("[Example]:\n" + ex + "\n")
	}
	b.WriteString("[Task]:\n" + MarkerProblem + " \"" + question + "\"\n" + MarkerAnswer + " ")
	return b.String()
}

func legacyScoreRelations(question string, relations []string) string {
	var b strings.Builder
	b.WriteString("[Task description]:\n")
	b.WriteString("Rate how relevant each candidate relation is for answering the [problem], one 'relation<TAB>score' line per relation, scores in [0,1].\n")
	b.WriteString("[Task]:\n")
	b.WriteString(MarkerProblem + " \"" + question + "\"\n")
	b.WriteString(MarkerScoreRels + "\n")
	for _, r := range relations {
		b.WriteString(r + "\n")
	}
	return b.String()
}

// TestEmbeddedV1MatchesLegacyBuilders is the refactor's byte-compat gate:
// the embedded v1 prompt files must render exactly what the old Go
// builders produced, for all seven pipeline slots.
func TestEmbeddedV1MatchesLegacyBuilders(t *testing.T) {
	const q = "What is the population of Porto?"
	const graph = "<Porto> <population> <214349>"
	const gold = "[entity_0]:\n<Porto> <population> <214349>"
	cases := []struct {
		slot      string
		got, want string
	}{
		{"pseudo-graph", PseudoGraph(q), legacyPseudoGraph(q)},
		{"direct-triples", DirectTriples(q), legacyDirectTriples(q)},
		{"verify", Verify(q, gold, graph), legacyVerify(q, gold, graph)},
		{"answer-graph", AnswerFromGraph(q, graph), legacyAnswerFromGraph(q, graph)},
		{"answer-graph-empty", AnswerFromGraph(q, ""), legacyAnswerFromGraph(q, "")},
		{"io", IO(q), legacyIO(q)},
		{"cot", CoT(q), legacyCoT(q)},
		{"score-relations", ScoreRelations(q, []string{"population", "capital of"}), legacyScoreRelations(q, []string{"population", "capital of"})},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s render drifted from the legacy builder:\n got: %q\nwant: %q", c.slot, c.got, c.want)
		}
	}
}

func TestCandidateVersionNotActiveByDefault(t *testing.T) {
	r := NewRegistry()
	v := r.View()
	if got := v.Version("answer-graph"); got != 1 {
		t.Fatalf("answer-graph active version = %d, want 1 (v2 is a candidate)", got)
	}
	if err := r.SetActive("answer-graph", 2); err != nil {
		t.Fatalf("SetActive: %v", err)
	}
	if got := r.View().Version("answer-graph"); got != 2 {
		t.Fatalf("after SetActive, active version = %d, want 2", got)
	}
	// The candidate body renders and still classifies/extracts correctly.
	p := r.View().AnswerFromGraph("q?", "<a> <b> <c>")
	if Classify(p) != TaskGraphQA {
		t.Fatalf("candidate render classifies as %s", Classify(p))
	}
	if p == legacyAnswerFromGraph("q?", "<a> <b> <c>") {
		t.Fatal("candidate v2 renders identically to v1 — not a usable A/B arm")
	}
}

func TestSetActiveRejectsUnknown(t *testing.T) {
	r := NewRegistry()
	if err := r.SetActive("no-such-prompt", 1); err == nil {
		t.Fatal("SetActive accepted an unknown name")
	}
	if err := r.SetActive("io", 99); err == nil {
		t.Fatal("SetActive accepted an unknown version")
	}
}

func TestResolveOverrides(t *testing.T) {
	r := NewRegistry()
	v, err := r.Resolve(map[string]string{"answer-graph": "2"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if v.Version("answer-graph") != 2 || v.Version("io") != 1 {
		t.Fatalf("Resolve versions = %v", v.Versions())
	}
	if _, err := r.Resolve(map[string]string{"answer-graph": "9"}); err == nil {
		t.Fatal("Resolve accepted a missing version")
	}
	if _, err := r.Resolve(map[string]string{"nope": "1"}); err == nil {
		t.Fatal("Resolve accepted an unknown name")
	}
	if _, err := r.Resolve(map[string]string{"io": "one"}); err == nil {
		t.Fatal("Resolve accepted a non-numeric version")
	}
}

func TestFingerprintTracksActiveSet(t *testing.T) {
	r := NewRegistry()
	fp1 := r.Fingerprint()
	if !strings.Contains(fp1, "answer-graph@1") {
		t.Fatalf("fingerprint %q missing answer-graph@1", fp1)
	}
	if err := r.SetActive("answer-graph", 2); err != nil {
		t.Fatal(err)
	}
	fp2 := r.Fingerprint()
	if fp1 == fp2 {
		t.Fatal("fingerprint did not change when the active set changed")
	}
	if !strings.Contains(fp2, "answer-graph@2") {
		t.Fatalf("fingerprint %q missing answer-graph@2", fp2)
	}
}

func TestLoadDirOverlayAndReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "io.v3.prompt")
	if err := os.WriteFile(path, ioOverlay, 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if err := r.LoadDir(dir); err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if got := r.View().Version("io"); got != 3 {
		t.Fatalf("after overlay, io active version = %d, want 3", got)
	}
	if !strings.Contains(r.View().IO("q?"), "in one word") {
		t.Fatal("overlay body not served")
	}

	// A broken overlay file must reject the reload atomically: the
	// registry keeps serving the pre-reload set.
	if err := os.WriteFile(path, []byte("---\ndescription: torn\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err == nil {
		t.Fatal("Reload accepted a torn prompt file")
	}
	if got := r.View().Version("io"); got != 3 {
		t.Fatalf("failed reload changed the active set: io@%d", got)
	}

	// Removing the overlay file and reloading falls back to embedded v1.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err != nil {
		t.Fatalf("Reload after remove: %v", err)
	}
	if got := r.View().Version("io"); got != 1 {
		t.Fatalf("after removing overlay, io active version = %d, want 1", got)
	}
}

func TestLoadDirRejectsMissingRequiredSlot(t *testing.T) {
	dir := t.TempDir()
	// An overlay that redefines a required slot with the wrong vars must
	// fail the slot's contract.
	bad := []byte(`---
---
[problem]: "{{query}}"
[answer]: `)
	if err := os.WriteFile(filepath.Join(dir, "io.v9.prompt"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if err := r.LoadDir(dir); err == nil {
		t.Fatal("LoadDir accepted a required slot with the wrong var set")
	}
	if got := r.View().Version("io"); got != 1 {
		t.Fatalf("failed LoadDir changed the active set: io@%d", got)
	}
}

// TestOverlayOneIdentityPerVersion: a prompt's (name, version) is its
// file name, so an overlay holding both io.v9.prompt and io.v09.prompt is
// refused by LoadDir and by Reload, and the registry keeps serving its
// current set.
func TestOverlayOneIdentityPerVersion(t *testing.T) {
	dir := t.TempDir()
	write := func(file string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, file), ioOverlay, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("io.v9.prompt")
	r := NewRegistry()
	if err := r.LoadDir(dir); err != nil {
		t.Fatalf("LoadDir of one io@9 file: %v", err)
	}
	before := r.View()
	if before.Version("io") != 9 {
		t.Fatalf("io active version = %d, want 9", before.Version("io"))
	}

	write("io.v09.prompt")
	if err := r.Reload(); err == nil {
		t.Fatal("Reload accepted io.v9.prompt beside io.v09.prompt")
	}
	if r.View() != before {
		t.Fatalf("a refused Reload changed the active set to %q", r.Fingerprint())
	}
	fresh := NewRegistry()
	if err := fresh.LoadDir(dir); err == nil {
		t.Fatal("LoadDir accepted io.v9.prompt beside io.v09.prompt")
	}
	if fresh.Dir() != "" || fresh.View().Version("io") != 1 {
		t.Fatalf("a refused LoadDir changed the registry: dir %q, io@%d", fresh.Dir(), fresh.View().Version("io"))
	}
}

// TestLoadDirNamesRemovedKeys: an overlay file in the old format, which
// stated its name, version, task, markers and vars, is refused with the
// first removed key and what states it now.
func TestLoadDirNamesRemovedKeys(t *testing.T) {
	dir := t.TempDir()
	old := []byte(`---
name: io
version: 9
task: io
---
[problem]: "{{question}}"
[answer]: `)
	if err := os.WriteFile(filepath.Join(dir, "io.v9.prompt"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	err := NewRegistry().LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), `frontmatter key "name" was removed: the file name <name>.v<version>.prompt states it`) {
		t.Fatalf("LoadDir of an old-format file: %v", err)
	}
}

func TestListMarksActiveAndSorts(t *testing.T) {
	r := NewRegistry()
	infos := r.List()
	if len(infos) < 8 {
		t.Fatalf("List returned %d entries, want >= 8", len(infos))
	}
	var sawV1, sawV2 bool
	for i := 1; i < len(infos); i++ {
		a, b := infos[i-1], infos[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Version >= b.Version) {
			t.Fatalf("List not sorted: %v before %v", a, b)
		}
	}
	for _, in := range infos {
		if in.Name == "answer-graph" && in.Version == 1 {
			sawV1 = true
			if !in.Active || in.Candidate {
				t.Fatalf("answer-graph@1 flags wrong: %+v", in)
			}
		}
		if in.Name == "answer-graph" && in.Version == 2 {
			sawV2 = true
			if in.Active || !in.Candidate {
				t.Fatalf("answer-graph@2 flags wrong: %+v", in)
			}
		}
		if in.Source != "embedded" {
			t.Fatalf("embedded prompt has source %q", in.Source)
		}
	}
	if !sawV1 || !sawV2 {
		t.Fatalf("List missing answer-graph versions (v1=%v v2=%v)", sawV1, sawV2)
	}
}

func TestApplyVersions(t *testing.T) {
	r := NewRegistry()
	if err := r.ApplyVersions(map[string]string{"answer-graph": "2", "io": "1"}); err != nil {
		t.Fatalf("ApplyVersions: %v", err)
	}
	if got := r.View().Version("answer-graph"); got != 2 {
		t.Fatalf("answer-graph = %d, want 2", got)
	}
	if err := r.ApplyVersions(map[string]string{"io": "nope"}); err == nil {
		t.Fatal("ApplyVersions accepted a non-numeric version")
	}
}

func TestViewVersionsWireForm(t *testing.T) {
	vs := NewRegistry().View().Versions()
	want := []string{"pseudo-graph", "direct-triples", "verify", "answer-graph", "io", "cot", "score-relations"}
	for _, name := range want {
		if vs[name] != "1" {
			t.Fatalf("Versions()[%q] = %q, want \"1\" (all: %v)", name, vs[name], vs)
		}
	}
}
