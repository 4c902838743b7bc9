package world

import (
	"encoding/json"
	"fmt"
	"io"
)

// entityJSON is the JSON wire form of an entity.
type entityJSON struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"`
	Name string `json:"name"`
}

// factJSON is the JSON wire form of a fact.
type factJSON struct {
	Subject int    `json:"s"`
	Rel     string `json:"r"`
	Object  int    `json:"o"` // entity ID, -1 for literals
	Literal string `json:"lit,omitempty"`
	Ord     int    `json:"ord,omitempty"`
}

// worldJSON is the JSON wire form of a world.
type worldJSON struct {
	Entities []entityJSON `json:"entities"`
	Facts    []factJSON   `json:"facts"`
}

// WriteJSON serialises the world, so tools can pin a generated world to
// disk for inspection.
func (w *World) WriteJSON(out io.Writer) error {
	doc := worldJSON{}
	for _, e := range w.Entities {
		doc.Entities = append(doc.Entities, entityJSON{ID: e.ID, Kind: e.Kind.String(), Name: e.Name})
	}
	for _, f := range w.Facts {
		doc.Facts = append(doc.Facts, factJSON{
			Subject: f.Subject, Rel: string(f.Rel), Object: f.Object,
			Literal: f.Literal, Ord: f.Ord,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("world: write: %w", err)
	}
	return nil
}
