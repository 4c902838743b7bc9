package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestStatsPrintInAFixedOrder: -stats prints the entity kinds and the KG
// stores in one order on every run, so its output can be diffed. The kinds
// and stores live in maps, so renders that ranged over them would differ.
func TestStatsPrintInAFixedOrder(t *testing.T) {
	render := func() string {
		var out bytes.Buffer
		if err := run(opts{stats: true, quick: true, seed: 42}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := render()
	if !strings.Contains(first, "KG[wikidata]") || strings.Index(first, "KG[wikidata]") > strings.Index(first, "KG[freebase]") {
		t.Fatalf("stores missing or out of node.Sources order:\n%s", first)
	}
	for i := range 8 {
		if got := render(); got != first {
			t.Fatalf("render %d differs from the first:\n%s\nfirst:\n%s", i+2, got, first)
		}
	}
}
