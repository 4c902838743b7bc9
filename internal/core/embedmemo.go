package core

import "repro/internal/embed"

// Memo is ignored: the pipeline encodes every query with its index's
// encoder and keeps no embedding between questions.
//
// Deprecated: Memo, NewMemo and Config.Memo remain only because the
// benchmark rig's composition still sets them; they go with the rig's
// next change.
type Memo struct{}

// NewMemo returns nil.
//
// Deprecated: see Memo.
func NewMemo(*embed.Encoder, int) *Memo { return nil }
