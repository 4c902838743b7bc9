package trace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/exec"
)

// openTestStore builds a FileStore with a fixed clock.
func openTestStore(t *testing.T, dir string) *FileStore {
	t.Helper()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.now = func() time.Time { return time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC) }
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFileStoreAppendGetList(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	a, err := s.Append(Record{Question: "q1", Method: "ours", Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Append(Record{Question: "q2", Method: "rag", Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "t000001" || b.ID != "t000002" {
		t.Fatalf("sequence IDs wrong: %q %q", a.ID, b.ID)
	}
	if a.Time == "" {
		t.Fatal("append did not stamp wall time")
	}

	got, err := s.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Question != "q1" || got.Epoch != 1 {
		t.Fatalf("get returned wrong record: %+v", got)
	}
	if _, err := s.Get("t999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing ID error = %v, want ErrNotFound", err)
	}

	all, err := s.List(ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].Question != "q2" || all[1].Question != "q1" {
		t.Fatalf("list should be newest-first: %+v", all)
	}
	one, err := s.List(ListOptions{Limit: 1})
	if err != nil || len(one) != 1 || one[0].Question != "q2" {
		t.Fatalf("limited list wrong: %+v (%v)", one, err)
	}
	rag, err := s.List(ListOptions{Method: "RAG"})
	if err != nil || len(rag) != 1 || rag[0].Question != "q2" {
		t.Fatalf("method filter wrong: %+v (%v)", rag, err)
	}

	st := s.Stats()
	if st.Records != 2 || st.Dropped != 0 || st.Bytes == 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestFileStoreReopenResumesSequence(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if _, err := s.Append(Record{Question: "q1", Method: "ours"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Record{Question: "q2", Method: "ours"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir)
	c, err := s2.Append(Record{Question: "q3", Method: "ours"})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "t000003" {
		t.Fatalf("sequence did not resume: %q", c.ID)
	}
	all, err := s2.List(ListOptions{})
	if err != nil || len(all) != 3 {
		t.Fatalf("reopened store lost records: %d (%v)", len(all), err)
	}
}

func TestFileStoreTornTailTruncatedAndCounted(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	full, err := s.Append(Record{Question: "intact", Method: "ours"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: half a record, no terminating newline.
	path := filepath.Join(dir, traceFileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"question":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTestStore(t, dir)
	st := s2.Stats()
	if st.Records != 1 || st.Dropped != 1 {
		t.Fatalf("torn tail not dropped: %+v", st)
	}
	// The tail must be physically gone so the next append is a clean line.
	next, err := s2.Append(Record{Question: "after-crash", Method: "ours"})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "t000002" {
		t.Fatalf("sequence wrong after torn-tail recovery: %q", next.ID)
	}
	if _, err := s2.Get(full.ID); err != nil {
		t.Fatalf("intact record lost: %v", err)
	}
	got, err := s2.Get(next.ID)
	if err != nil || got.Question != "after-crash" {
		t.Fatalf("post-recovery append unreadable: %+v (%v)", got, err)
	}
}

func TestFileStoreSkipsCorruptInteriorLine(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if _, err := s.Append(Record{Question: "q1", Method: "ours"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, traceFileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A complete-but-corrupt line followed by a good record.
	if _, err := f.WriteString("CORRUPT LINE\n"); err != nil {
		t.Fatal(err)
	}
	line, _ := Encode(Record{ID: "t000009", Question: "q9", Method: "ours"})
	if _, err := f.Write(line); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTestStore(t, dir)
	st := s2.Stats()
	if st.Records != 2 || st.Dropped != 1 {
		t.Fatalf("corrupt line handling wrong: %+v", st)
	}
	// Sequence resumes past the highest surviving ID.
	next, err := s2.Append(Record{Question: "q10", Method: "ours"})
	if err != nil || next.ID != "t000010" {
		t.Fatalf("sequence wrong: %q (%v)", next.ID, err)
	}
}

func TestFileStoreConcurrentAppendAndRead(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := s.Append(Record{Question: "q", Method: "ours"}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.List(ListOptions{Limit: 5}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Records != 160 || st.Dropped != 0 {
		t.Fatalf("concurrent appends lost records: %+v", st)
	}
}

// writeStore writes raw lines as a store file in dir.
func writeStore(t testing.TB, dir string, lines ...string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, traceFileName), []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// encodeLine encodes a record with the given ID and question.
func encodeLine(t testing.TB, id, question string) string {
	t.Helper()
	b, err := Encode(Record{ID: id, Question: question, Method: "ours"})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFileStoreListMethodFilter: the method filter folds case on both
// sides, also where the stored method is spelled with JSON escapes or
// with a rune that folds to an ASCII letter (the Kelvin sign, the long
// s), and a question that quotes another method's JSON is no match.
func TestFileStoreListMethodFilter(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir,
		`{"id":"t000001","question":"q1","method":"OURS","epoch":0,"cache_hit":false,"llm_calls":0,"prompt_tokens":0,"completion_tokens":0}`+"\n",
		`{"id":"t000002","question":"what does \"method\":\"io\" mean?","method":"ours","epoch":0,"cache_hit":false,"llm_calls":0,"prompt_tokens":0,"completion_tokens":0}`+"\n",
		`{"id":"t000003","question":"q3","method":"\u0049\u006f","epoch":0,"cache_hit":false,"llm_calls":0,"prompt_tokens":0,"completion_tokens":0}`+"\n",
		`{"id":"t000004","question":"q4","method":"\u212aey","epoch":0,"cache_hit":false,"llm_calls":0,"prompt_tokens":0,"completion_tokens":0}`+"\n",
		`{"id":"t000005","question":"q5","method":"ſc","epoch":0,"cache_hit":false,"llm_calls":0,"prompt_tokens":0,"completion_tokens":0}`+"\n",
		`{"id":"t000006","question":"q6","method":"Ours","epoch":0,"cache_hit":false,"llm_calls":0,"prompt_tokens":0,"completion_tokens":0}`+"\n",
	)
	s := openTestStore(t, dir)
	for _, tc := range []struct {
		method string
		want   []string
	}{
		{"ours", []string{"t000006", "t000002", "t000001"}},
		{"oUrS", []string{"t000006", "t000002", "t000001"}},
		{"io", []string{"t000003"}},
		{"IO", []string{"t000003"}},
		{"key", []string{"t000004"}},
		{"SC", []string{"t000005"}},
		{"ſC", []string{"t000005"}},
		{"mean", nil},
		{"method", nil},
	} {
		recs, err := s.List(ListOptions{Method: tc.method})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, rec := range recs {
			got = append(got, rec.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("List(method %q) = %v, want %v", tc.method, got, tc.want)
		}
	}
}

// TestMayHoldFold: the prefilter accepts every spelling of a method
// value and rejects a line whose only occurrences are object keys, parts
// of longer strings or quoted inside another string.
func TestMayHoldFold(t *testing.T) {
	for _, tc := range []struct {
		line, name string
		want       bool
	}{
		{`{"method":"io"}`, "io", true},
		{`{"method":"IO"}`, "io", true},
		{`{"method" : "io" }`, "IO", true},
		{`{"method":"\u0069\u004F"}`, "io", true},
		{`{"method":"\u212aey"}`, "key", true},
		{`{"method":"ſc"}`, "SC", true},
		{`{"method":"ours-gp"}`, "OURS-GP", true},
		{`{"prompt_versions":{"io":"1","cot":"1"}}`, "io", false},
		{`{"prompt_versions":{"cot" :"1"}}`, "cot", false},
		{`{"question":"what does \"method\":\"io\" mean?"}`, "io", false},
		{`{"completion_tokens":0,"method":"ours"}`, "io", false},
		{`{"method":"iox"}`, "io", false},
		{`{"method":"xio"}`, "io", false},
		{`{"method":"i`, "io", false},
	} {
		if got := mayHoldFold([]byte(tc.line), tc.name); got != tc.want {
			t.Errorf("mayHoldFold(%s, %q) = %v, want %v", tc.line, tc.name, got, tc.want)
		}
	}
}

// TestFileStoreRecoveryIndexesBySequence: recovery keeps one record per
// sequence number (the first in the file), drops lines whose ID is not
// "t<seq>", and serves an out-of-order file in sequence order.
func TestFileStoreRecoveryIndexesBySequence(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir,
		encodeLine(t, "t000003", "three"),
		encodeLine(t, "t000001", "one"),
		encodeLine(t, "t000003", "three again"),
		encodeLine(t, "x7", "not a sequence"),
		encodeLine(t, "", "no id"),
		encodeLine(t, "t000002", "two"),
	)
	s := openTestStore(t, dir)
	if st := s.Stats(); st.Records != 3 || st.Dropped != 3 {
		t.Fatalf("stats %+v, want 3 records and 3 dropped", st)
	}
	all, err := s.List(ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range all {
		got = append(got, rec.ID+"="+rec.Question)
	}
	if want := []string{"t000003=three", "t000002=two", "t000001=one"}; !slices.Equal(got, want) {
		t.Fatalf("list %v, want %v", got, want)
	}
	if rec, err := s.Get("t000003"); err != nil || rec.Question != "three" {
		t.Fatalf("get kept the wrong duplicate: %+v (%v)", rec, err)
	}
	for _, id := range []string{"x7", "t3", "t0000003", ""} {
		if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%q) = %v, want ErrNotFound", id, err)
		}
	}
	if next, err := s.Append(Record{Question: "four"}); err != nil || next.ID != "t000004" {
		t.Fatalf("append after recovery: %q (%v)", next.ID, err)
	}
}

// TestFileStoreListDoesNotBlockAppend: a List reads and decodes outside
// the store's lock, so appends go on while a filter that matches nothing
// scans the whole file.
func TestFileStoreListDoesNotBlockAppend(t *testing.T) {
	dir := t.TempDir()
	pad := strings.Repeat("p", 512)
	lines := make([]string, 10000)
	for i := range lines {
		lines[i] = encodeLine(t, fmt.Sprintf("t%06d", i+1), pad)
	}
	writeStore(t, dir, lines...)
	s := openTestStore(t, dir)

	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		if recs, err := s.List(ListOptions{Method: "nope"}); err != nil || len(recs) != 0 {
			t.Errorf("list: %d records (%v)", len(recs), err)
		}
	}()
	<-started
	appended := 0
	for listing := true; listing; {
		if _, err := s.Append(Record{Question: "during", Method: "ours"}); err != nil {
			t.Error(err)
			break
		}
		select {
		case <-done:
			listing = false
		default:
			appended++
		}
	}
	<-done
	// A store that holds its lock across the scan lets an append or two
	// through before the List takes it, then none.
	if appended < 10 {
		t.Fatalf("%d appends completed while a List scanned %d records", appended, len(lines))
	}
}

// TestFileStoreReadsAfterCloseFail: a closed store refuses reads with an
// error, never a panic.
func TestFileStoreReadsAfterCloseFail(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	a, err := s.Append(Record{Question: "q1", Method: "ours"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(a.ID); err == nil {
		t.Error("Get after Close succeeded")
	}
	if _, err := s.List(ListOptions{}); err == nil {
		t.Error("List after Close succeeded")
	}
	if _, err := s.Append(Record{Question: "q2"}); err == nil {
		t.Error("Append after Close succeeded")
	}
}

// BenchmarkListNoMatch times a List whose method filter matches none of
// 50 000 records shaped like a serving store's ("ours" runs with stages
// and graphs, baseline runs without), about 33 MB on disk. The filter,
// "io", is a prompt name every record's prompt_versions holds as a key.
func BenchmarkListNoMatch(b *testing.B) {
	s, err := NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50000; i++ {
		rec := Record{
			Question:       fmt.Sprintf("Where was person number %d of the synthetic world born?", i),
			Method:         []string{"ours", "cot", "rag", "sc"}[i%4],
			Model:          "GPT-3.5",
			KG:             "wikidata",
			Answer:         fmt.Sprintf("The answer is {City %d}.", i%97),
			Epoch:          1,
			ElapsedUS:      int64(200 + i%50),
			LLMCalls:       3,
			PromptVersions: map[string]string{"answer-graph": "1", "cot": "1", "io": "1", "pseudo-graph": "1", "verify": "1"},
		}
		if rec.Method == "ours" {
			rec.Stages = []exec.Span{{Stage: "pseudo-graph", LLMCalls: 1}, {Stage: "retrieve-prune"}, {Stage: "verify", LLMCalls: 1}, {Stage: "answer", LLMCalls: 1}}
			rec.PseudoCode = fmt.Sprintf("CREATE (p:Person {name: 'Person %d'})-[:BORN_IN]->(c:City {name: 'City %d'})", i, i%97)
			rec.Gp = []string{fmt.Sprintf("<Person %d> <born in> <City %d>", i, i%97)}
			rec.Gg = []string{fmt.Sprintf("<Person %d> <place of birth> <City %d>", i, i%89), fmt.Sprintf("<Person %d> <occupation> <writer>", i)}
			rec.Gf = rec.Gg[:1]
			rec.Kept = []KeptSubject{{Subject: fmt.Sprintf("Person %d", i), Confidence: 1, Triples: 2}}
		}
		if _, err := s.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(s.Stats().Bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, err := s.List(ListOptions{Method: "io"}); err != nil || len(recs) != 0 {
			b.Fatalf("list: %d records (%v)", len(recs), err)
		}
	}
}
