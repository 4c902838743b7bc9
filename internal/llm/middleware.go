package llm

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/prompts"
)

// Exchange is one recorded prompt/completion pair.
type Exchange struct {
	Task     prompts.TaskKind
	Request  Request
	Response Response
	Err      error
}

// Recorder wraps a Client and keeps a transcript of every call — the
// debugging companion for pipeline runs (examples/customllm uses it to
// show what the model actually saw and said).
type Recorder struct {
	Inner Client

	mu        sync.Mutex
	exchanges []Exchange
}

// NewRecorder wraps a client.
func NewRecorder(inner Client) *Recorder {
	return &Recorder{Inner: inner}
}

// Name implements Client.
func (r *Recorder) Name() string { return r.Inner.Name() }

// Complete implements Client, recording the exchange.
func (r *Recorder) Complete(ctx context.Context, req Request) (Response, error) {
	resp, err := r.Inner.Complete(ctx, req)
	r.mu.Lock()
	r.exchanges = append(r.exchanges, Exchange{
		Task:     prompts.Classify(req.Prompt),
		Request:  req,
		Response: resp,
		Err:      err,
	})
	r.mu.Unlock()
	return resp, err
}

// Exchanges returns a copy of the transcript so far.
func (r *Recorder) Exchanges() []Exchange {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Exchange, len(r.exchanges))
	copy(out, r.exchanges)
	return out
}

// Scripted is a Client that replays canned completions per task kind —
// useful for tests and for replaying transcripts from real LLM endpoints
// through the pipeline. Unconfigured task kinds return an error.
type Scripted struct {
	// ByTask maps a task kind to the completion returned for it. A
	// function receives the raw prompt for content-dependent scripting.
	ByTask map[prompts.TaskKind]func(prompt string) (string, error)
}

// NewScripted returns an empty scripted client; register handlers with On.
func NewScripted() *Scripted {
	return &Scripted{ByTask: map[prompts.TaskKind]func(string) (string, error){}}
}

// On registers a fixed completion for a task kind and returns the client
// for chaining.
func (s *Scripted) On(task prompts.TaskKind, completion string) *Scripted {
	s.ByTask[task] = func(string) (string, error) { return completion, nil }
	return s
}

// OnFunc registers a prompt-dependent handler.
func (s *Scripted) OnFunc(task prompts.TaskKind, fn func(prompt string) (string, error)) *Scripted {
	s.ByTask[task] = fn
	return s
}

// Name implements Client.
func (s *Scripted) Name() string { return "scripted" }

// Complete implements Client.
func (s *Scripted) Complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	task := prompts.Classify(req.Prompt)
	fn, ok := s.ByTask[task]
	if !ok {
		return Response{}, fmt.Errorf("llm: scripted client has no handler for task %v", task)
	}
	text, err := fn(req.Prompt)
	if err != nil {
		return Response{}, err
	}
	return Response{
		Text: text,
		Usage: Usage{
			PromptTokens:     estimateTokens(req.Prompt),
			CompletionTokens: estimateTokens(text),
		},
	}, nil
}
