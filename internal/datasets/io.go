package datasets

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/qa"
)

// questionJSON is the JSON wire form of one question, carrying the intent
// so a written dataset stays machine-evaluable.
type questionJSON struct {
	ID        int      `json:"id"`
	Text      string   `json:"text"`
	Kind      string   `json:"kind"`
	Subject   string   `json:"subject"`
	Subject2  string   `json:"subject2,omitempty"`
	Chain     []string `json:"chain,omitempty"`
	ValueRel  string   `json:"value_rel,omitempty"`
	FilterRel string   `json:"filter_rel,omitempty"`
	TRef      string   `json:"temporal_ref,omitempty"`
	Golds     []string `json:"golds,omitempty"`
	Refs      []string `json:"refs,omitempty"`
	SourceKG  string   `json:"source_kg"`
}

// datasetJSON is the JSON wire form of a dataset.
type datasetJSON struct {
	Name      string         `json:"name"`
	Metric    string         `json:"metric"`
	Questions []questionJSON `json:"questions"`
}

var kindNames = map[qa.IntentKind]string{
	qa.KindLookup:       "lookup",
	qa.KindCompareCount: "compare-count",
	qa.KindCompareValue: "compare-value",
	qa.KindSuperlative:  "superlative",
	qa.KindOpenProfile:  "open-profile",
	qa.KindOpenField:    "open-field",
	qa.KindOpenList:     "open-list",
	qa.KindCount:        "count",
}

var trefNames = map[qa.TemporalRef]string{
	qa.TemporalPrevious: "previous",
	qa.TemporalOriginal: "original",
}

// WriteJSON serialises a dataset.
func WriteJSON(w io.Writer, d *qa.Dataset) error {
	doc := datasetJSON{Name: d.Name, Metric: d.Metric}
	for _, q := range d.Questions {
		qj := questionJSON{
			ID:        q.ID,
			Text:      q.Text,
			Kind:      kindNames[q.Intent.Kind],
			Subject:   q.Intent.Subject,
			Subject2:  q.Intent.Subject2,
			ValueRel:  string(q.Intent.ValueRel),
			FilterRel: string(q.Intent.FilterRel),
			TRef:      trefNames[q.Intent.TRef],
			Golds:     q.Golds,
			Refs:      q.Refs,
			SourceKG:  q.SourceKG.String(),
		}
		for _, rel := range q.Intent.Chain {
			qj.Chain = append(qj.Chain, string(rel))
		}
		doc.Questions = append(doc.Questions, qj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("datasets: write: %w", err)
	}
	return nil
}
