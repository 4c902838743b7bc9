package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestReportCollectAndWrite(t *testing.T) {
	env := tinyEnv(t)
	r := &Report{}
	if err := r.Collect(context.Background(), env, MethodCoT, ModelGPT35, "SimpleQuestions"); err != nil {
		t.Fatal(err)
	}
	if err := r.Collect(context.Background(), env, MethodCoT, ModelGPT35, "NatureQuestions", "freebase"); err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 2 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	if r.Cells[1].Source.String() != "freebase" {
		t.Errorf("source override ignored: %v", r.Cells[1].Source)
	}

	var csvBuf bytes.Buffer
	if err := r.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "method,") {
		t.Errorf("csv output:\n%s", csvBuf.String())
	}
}

func TestReportCollectErrors(t *testing.T) {
	env := tinyEnv(t)
	r := &Report{}
	if err := r.Collect(context.Background(), env, MethodCoT, ModelGPT35, "NoSuchDataset"); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := r.Collect(context.Background(), env, MethodCoT, ModelGPT35, "QALD", "marsbase"); err == nil {
		t.Error("unknown source accepted")
	}
}
