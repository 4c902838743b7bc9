package llm

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/prompts"
)

func TestScriptedClient(t *testing.T) {
	s := NewScripted().
		On(prompts.TaskIO, "the answer is {42}.").
		OnFunc(prompts.TaskCoT, func(p string) (string, error) {
			if strings.Contains(p, "fail") {
				return "", errors.New("scripted failure")
			}
			return "let me think... {ok}", nil
		})

	resp, err := s.Complete(context.Background(), Request{Prompt: prompts.IO("q?")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "the answer is {42}." {
		t.Errorf("IO response = %q", resp.Text)
	}
	if resp.Usage.PromptTokens == 0 {
		t.Error("usage not estimated")
	}

	if _, err := s.Complete(context.Background(), Request{Prompt: prompts.CoT("please fail")}); err == nil {
		t.Error("scripted error swallowed")
	}
	if _, err := s.Complete(context.Background(), Request{Prompt: prompts.PseudoGraph("q?")}); err == nil {
		t.Error("unregistered task accepted")
	}
}

func TestRecorder(t *testing.T) {
	inner := NewScripted().On(prompts.TaskIO, "{x}")
	rec := NewRecorder(inner)
	if rec.Name() != "scripted" {
		t.Errorf("Name = %q", rec.Name())
	}
	if _, err := rec.Complete(context.Background(), Request{Prompt: prompts.IO("q1?")}); err != nil {
		t.Fatal(err)
	}
	// Errors are recorded too.
	_, _ = rec.Complete(context.Background(), Request{Prompt: prompts.CoT("q2?")})

	ex := rec.Exchanges()
	if len(ex) != 2 {
		t.Fatalf("recorded %d exchanges, want 2", len(ex))
	}
	if ex[0].Task != prompts.TaskIO || ex[0].Response.Text != "{x}" {
		t.Errorf("exchange 0 = %+v", ex[0])
	}
	if ex[1].Err == nil {
		t.Error("exchange 1 should carry the error")
	}
}

func TestRecorderWrapsSimLM(t *testing.T) {
	sim := newSim(t, GPT35Params())
	rec := NewRecorder(sim)
	q := "Where was " + headPerson(sim) + " born?"
	direct, err := sim.Complete(context.Background(), Request{Prompt: prompts.CoT(q)})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := rec.Complete(context.Background(), Request{Prompt: prompts.CoT(q)})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Text != wrapped.Text {
		t.Error("Recorder altered the completion")
	}
}
