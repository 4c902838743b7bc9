package datasets

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// TestDatasetJSONRoundTrip decodes WriteJSON's document with encoding/json
// and checks every question is written with its fields and a distinct,
// non-empty intent name, so the written dataset stays machine-evaluable.
func TestDatasetJSONRoundTrip(t *testing.T) {
	names := map[string]bool{}
	for _, n := range kindNames {
		if n == "" || names[n] {
			t.Fatalf("intent name %q is empty or names two kinds", n)
		}
		names[n] = true
	}
	s, err := Build(testWorld(t), smallData())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range s.Datasets() {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, ds); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Name      string `json:"name"`
			Metric    string `json:"metric"`
			Questions []struct {
				ID        int      `json:"id"`
				Text      string   `json:"text"`
				Kind      string   `json:"kind"`
				Subject   string   `json:"subject"`
				Subject2  string   `json:"subject2"`
				Chain     []string `json:"chain"`
				ValueRel  string   `json:"value_rel"`
				FilterRel string   `json:"filter_rel"`
				TRef      string   `json:"temporal_ref"`
				Golds     []string `json:"golds"`
				Refs      []string `json:"refs"`
				SourceKG  string   `json:"source_kg"`
			} `json:"questions"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if doc.Name != ds.Name || doc.Metric != ds.Metric {
			t.Errorf("header mismatch: %s/%s", doc.Name, doc.Metric)
		}
		if len(doc.Questions) != len(ds.Questions) {
			t.Fatalf("%s: %d questions, want %d", ds.Name, len(doc.Questions), len(ds.Questions))
		}
		for i, q := range ds.Questions {
			got := doc.Questions[i]
			if got.ID != q.ID || got.Text != q.Text || !names[got.Kind] || got.Kind != kindNames[q.Intent.Kind] ||
				got.Subject != q.Intent.Subject || got.Subject2 != q.Intent.Subject2 ||
				got.ValueRel != string(q.Intent.ValueRel) || got.FilterRel != string(q.Intent.FilterRel) ||
				got.TRef != trefNames[q.Intent.TRef] || got.SourceKG != q.SourceKG.String() {
				t.Fatalf("%s question %d written as %+v, want %+v", ds.Name, i, got, q)
			}
			if len(got.Chain) != len(q.Intent.Chain) {
				t.Fatalf("%s question %d chain mismatch", ds.Name, i)
			}
			for j, rel := range q.Intent.Chain {
				if got.Chain[j] != string(rel) {
					t.Fatalf("%s question %d chain[%d] = %q, want %q", ds.Name, i, j, got.Chain[j], rel)
				}
			}
			if !slices.Equal(got.Golds, q.Golds) || !slices.Equal(got.Refs, q.Refs) {
				t.Fatalf("%s question %d answers mismatch", ds.Name, i)
			}
		}
	}
}
