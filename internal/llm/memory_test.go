package llm

import (
	"strings"
	"testing"

	"repro/internal/world"
)

// scanResolve is the case-folded linear scan resolveSubject ran before
// the world kept a fold map, kept as the reference: the exact name, else
// the first entity in world order whose lower-cased name is the query's.
func scanResolve(w *world.World, name string) (world.Entity, bool) {
	if e, ok := w.EntityByName(name); ok {
		return e, true
	}
	folded := strings.ToLower(name)
	for _, e := range w.Entities {
		if strings.ToLower(e.Name) == folded {
			return e, true
		}
	}
	return world.Entity{}, false
}

// TestResolveSubjectMatchesScan: over every entity name of the default
// world, as written, upper-cased and lower-cased, and names the world
// lacks, resolveSubject finds what the scan found.
func TestResolveSubjectMatchesScan(t *testing.T) {
	w := world.MustGenerate(world.DefaultConfig())
	m := &memory{w: w}
	names := []string{"", "Zorblax Quintavius", "zorblax quintavius", "LAKE", "Lake Superior 3"}
	for _, e := range w.Entities {
		names = append(names, e.Name, strings.ToUpper(e.Name), strings.ToLower(e.Name), e.Name+" Jr")
	}
	found := 0
	for _, name := range names {
		got, ok := m.resolveSubject(name)
		want, wantOK := scanResolve(w, name)
		if ok != wantOK || got.ID != want.ID {
			t.Fatalf("%q: resolved to %d (%v), the scan to %d (%v)", name, got.ID, ok, want.ID, wantOK)
		}
		if ok {
			found++
		}
	}
	if found != 3*len(w.Entities) {
		t.Fatalf("%d of %d case variants resolved", found, 3*len(w.Entities))
	}
}
