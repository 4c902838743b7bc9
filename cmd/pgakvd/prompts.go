package main

import (
	"fmt"
	"net/http"

	"repro/internal/failure"
	"repro/internal/prompts"
)

// promptsResponse is the GET /v1/prompts (and reload) body: every loaded
// prompt version with its task, candidate flag, active marker and source,
// plus the active-set fingerprint and the overlay directory.
type promptsResponse struct {
	Fingerprint string         `json:"fingerprint"`
	Dir         string         `json:"dir,omitempty"`
	Prompts     []prompts.Info `json:"prompts"`
}

func (s *Server) promptsWire() promptsResponse {
	reg := s.node.Prompts
	return promptsResponse{Fingerprint: reg.Fingerprint(), Dir: reg.Dir(), Prompts: reg.List()}
}

func (s *Server) handlePrompts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.promptsWire())
}

// handlePromptsReload re-reads the -prompt-dir overlay and swaps the
// prompt set atomically; an invalid file rejects the whole reload with
// 422 and the current set keeps serving. The response is the post-reload
// state, so the caller can diff fingerprints to see whether anything
// actually changed.
func (s *Server) handlePromptsReload(w http.ResponseWriter, r *http.Request) {
	if err := s.node.Prompts.Reload(); err != nil {
		writeError(w, failure.InvalidPrompts, fmt.Errorf("prompt reload rejected, current set keeps serving: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, s.promptsWire())
}
