package world

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/kg"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.People = 80
	cfg.Cities = 30
	cfg.Countries = 15
	cfg.Works = 50
	cfg.Companies = 20
	cfg.Universities = 12
	cfg.Lakes = 20
	cfg.Mountains = 10
	cfg.Rivers = 20
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(smallConfig())
	b := MustGenerate(smallConfig())
	if len(a.Entities) != len(b.Entities) || len(a.Facts) != len(b.Facts) {
		t.Fatal("sizes differ across runs")
	}
	for i := range a.Entities {
		if a.Entities[i] != b.Entities[i] {
			t.Fatalf("entity %d differs: %v vs %v", i, a.Entities[i], b.Entities[i])
		}
	}
	for i := range a.Facts {
		if a.Facts[i] != b.Facts[i] {
			t.Fatalf("fact %d differs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	cfg := smallConfig()
	a := MustGenerate(cfg)
	cfg.Seed = 99
	b := MustGenerate(cfg)
	same := 0
	for i := range a.Entities {
		if i < len(b.Entities) && a.Entities[i].Name == b.Entities[i].Name {
			same++
		}
	}
	if same == len(a.Entities) {
		t.Error("different seeds produced identical entity names")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := smallConfig()
	bad.People = 0
	if _, err := Generate(bad); err == nil {
		t.Error("People=0 accepted")
	}
	bad = smallConfig()
	bad.PopulationRevisions = 0
	if _, err := Generate(bad); err == nil {
		t.Error("PopulationRevisions=0 accepted")
	}
	bad = smallConfig()
	bad.Works = 1
	if _, err := Generate(bad); err == nil {
		t.Error("too few works accepted")
	}
}

func TestEntityNamesUnique(t *testing.T) {
	w := MustGenerate(smallConfig())
	seen := map[string]bool{}
	for _, e := range w.Entities {
		if seen[e.Name] {
			t.Fatalf("duplicate entity name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestEveryPersonHasCoreFacts(t *testing.T) {
	w := MustGenerate(smallConfig())
	for _, id := range w.OfKind(KindPerson) {
		for _, rel := range []RelKey{RelBornIn, RelBirthDate, RelCitizenOf, RelFieldOfWork, RelEducatedAt} {
			if len(w.FactsSR(id, rel)) == 0 {
				t.Fatalf("person %q lacks %s", w.Entities[id].Name, rel)
			}
		}
	}
}

func TestTimeVaryingPopulation(t *testing.T) {
	w := MustGenerate(smallConfig())
	for _, id := range w.OfKind(KindCity) {
		pops := w.FactsSR(id, RelPopulation)
		if len(pops) != smallConfig().PopulationRevisions {
			t.Fatalf("city has %d population revisions, want %d", len(pops), smallConfig().PopulationRevisions)
		}
		for i := 1; i < len(pops); i++ {
			if pops[i-1].Ord >= pops[i].Ord {
				t.Fatal("population ords not increasing")
			}
			a, _ := strconv.ParseInt(pops[i-1].Literal, 10, 64)
			b, _ := strconv.ParseInt(pops[i].Literal, 10, 64)
			if b <= a {
				t.Fatal("populations should grow across revisions")
			}
		}
		cur, ok := w.CurrentFact(id, RelPopulation)
		if !ok || cur.Ord != len(pops)-1 {
			t.Fatal("CurrentFact should return the last revision")
		}
	}
}

func TestBirthplaceConsistency(t *testing.T) {
	// Citizenship must match the birth city's country (generator invariant
	// that the multi-hop QALD chains rely on).
	w := MustGenerate(smallConfig())
	for _, p := range w.OfKind(KindPerson) {
		born := w.FactsSR(p, RelBornIn)
		citizen := w.FactsSR(p, RelCitizenOf)
		if len(born) != 1 || len(citizen) != 1 {
			t.Fatal("born/citizen cardinality wrong")
		}
		country := w.FactsSR(born[0].Object, RelInCountry)
		if len(country) != 1 || country[0].Object != citizen[0].Object {
			t.Fatalf("person %q: citizenship %q != birth country %q",
				w.Entities[p].Name,
				w.Entities[citizen[0].Object].Name,
				w.Entities[country[0].Object].Name)
		}
	}
}

func TestPopularityMonotonic(t *testing.T) {
	w := MustGenerate(smallConfig())
	people := w.OfKind(KindPerson)
	prev := 2.0
	for _, id := range people {
		pop := w.Popularity(id)
		if pop <= 0 || pop > 1 {
			t.Fatalf("popularity out of range: %v", pop)
		}
		if pop > prev {
			t.Fatal("popularity should not increase with rank")
		}
		prev = pop
	}
	if w.Popularity(-1) != 0 || w.Popularity(1<<30) != 0 {
		t.Error("out-of-range popularity should be 0")
	}
}

func TestHeadEntities(t *testing.T) {
	w := MustGenerate(smallConfig())
	heads := w.HeadEntities(KindPerson, 0.25)
	all := w.OfKind(KindPerson)
	if len(heads) != len(all)/4 {
		t.Errorf("HeadEntities(0.25) = %d of %d", len(heads), len(all))
	}
	for i, id := range heads {
		if id != all[i] {
			t.Error("heads should be a prefix of creation order")
		}
	}
	if got := w.HeadEntities(KindPerson, 0.000001); len(got) != 1 {
		t.Errorf("tiny frac should clamp to 1, got %d", len(got))
	}
}

func TestEntityByName(t *testing.T) {
	w := MustGenerate(smallConfig())
	e := w.Entities[10]
	got, ok := w.EntityByName(e.Name)
	if !ok || got.ID != e.ID {
		t.Errorf("EntityByName(%q) = %v, %v", e.Name, got, ok)
	}
	if _, ok := w.EntityByName("no such entity"); ok {
		t.Error("found nonexistent entity")
	}
}

func TestRelByKey(t *testing.T) {
	info, ok := RelByKey(RelPopulation)
	if !ok || !info.TimeVarying || !info.ObjectLiteral {
		t.Errorf("RelPopulation info = %+v", info)
	}
	if _, ok := RelByKey("nonexistent"); ok {
		t.Error("found nonexistent relation")
	}
}

func TestSchemaRendering(t *testing.T) {
	w := MustGenerate(smallConfig())
	wiki := WikidataSchema().Render(w)
	free := FreebaseSchema().Render(w)
	if wiki.Source() != kg.SourceWikidata || free.Source() != kg.SourceFreebase {
		t.Fatal("store sources wrong")
	}
	// Wikidata drops some facts (partial coverage); Freebase renders all
	// (modulo surface-duplicate facts, which the store dedups).
	if free.Len() > len(w.Facts) || free.Len() < len(w.Facts)-len(w.Facts)/50 {
		t.Errorf("freebase store = %d triples, want ~%d", free.Len(), len(w.Facts))
	}
	if wiki.Len() >= free.Len() {
		t.Errorf("wikidata store should be smaller due to coverage gaps: %d vs %d",
			wiki.Len(), free.Len())
	}
	// Freebase lower-cases entities.
	person := w.Entities[w.OfKind(KindPerson)[0]]
	if free.HasSubject(person.Name) {
		t.Error("freebase store should not contain canonical-case subjects")
	}
	if !wiki.HasSubject(person.Name) {
		t.Error("wikidata store should contain canonical-case subjects")
	}
}

func TestSchemaRelationLabelsDiffer(t *testing.T) {
	wk := WikidataSchema()
	fb := FreebaseSchema()
	differing := 0
	for _, r := range Relations {
		if wk.RelationLabel(r.Key) != fb.RelationLabel(r.Key) {
			differing++
		}
	}
	if differing < len(Relations)-2 {
		t.Errorf("only %d of %d relation labels differ between schemas", differing, len(Relations))
	}
}

func TestSchemaFor(t *testing.T) {
	if _, err := SchemaFor(kg.SourceWikidata); err != nil {
		t.Error(err)
	}
	if _, err := SchemaFor(kg.SourceFreebase); err != nil {
		t.Error(err)
	}
	if _, err := SchemaFor(kg.SourceUnknown); err == nil {
		t.Error("SchemaFor(unknown) should fail")
	}
}

func TestSurfaceToRel(t *testing.T) {
	tests := []struct {
		surface string
		want    RelKey
	}{
		{"place of birth", RelBornIn},
		{"people/person/place_of_birth", RelBornIn},
		{"population", RelPopulation},
		{"location/statistical_region/population", RelPopulation},
		{"PLACE OF BIRTH", RelBornIn}, // case-insensitive
	}
	for _, tt := range tests {
		got, ok := SurfaceToRel(tt.surface)
		if !ok || got != tt.want {
			t.Errorf("SurfaceToRel(%q) = %v, %v; want %v", tt.surface, got, ok, tt.want)
		}
	}
	if _, ok := SurfaceToRel("no such relation"); ok {
		t.Error("resolved an unknown surface")
	}
}

func TestCoversDeterministic(t *testing.T) {
	s := WikidataSchema()
	f := func(id uint16) bool {
		fact := Fact{ID: int(id), Rel: RelBirthDate}
		return s.Covers(fact) == s.Covers(fact)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoversFullForUndroppedRels(t *testing.T) {
	s := WikidataSchema()
	for i := 0; i < 100; i++ {
		if !s.Covers(Fact{ID: i, Rel: RelBornIn}) {
			t.Fatal("undropped relation was dropped")
		}
	}
}

func TestObjectSurface(t *testing.T) {
	w := MustGenerate(smallConfig())
	for _, f := range w.Facts[:50] {
		got := w.ObjectSurface(f)
		if f.ObjectIsEntity() {
			if got != w.Entities[f.Object].Name {
				t.Fatalf("entity surface wrong")
			}
		} else if got != f.Literal {
			t.Fatalf("literal surface wrong")
		}
	}
}

func TestStats(t *testing.T) {
	w := MustGenerate(smallConfig())
	s := w.Stats()
	if s.Entities != len(w.Entities) || s.Facts != len(w.Facts) {
		t.Errorf("stats = %+v", s)
	}
	if s.ByKind["person"] != 80 {
		t.Errorf("person count = %d", s.ByKind["person"])
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

// TestWikidataDropRate: the coverage gaps must remove roughly the
// configured fraction of dropped-relation facts, and nothing else.
func TestWikidataDropRate(t *testing.T) {
	w := MustGenerate(smallConfig())
	s := WikidataSchema()
	droppedRel, keptRel, otherDropped := 0, 0, 0
	totalDroppedRelFacts := 0
	for _, f := range w.Facts {
		if s.dropRels[f.Rel] {
			totalDroppedRelFacts++
			if s.Covers(f) {
				keptRel++
			} else {
				droppedRel++
			}
		} else if !s.Covers(f) {
			otherDropped++
		}
	}
	if otherDropped != 0 {
		t.Errorf("%d facts of undropped relations were dropped", otherDropped)
	}
	rate := float64(droppedRel) / float64(totalDroppedRelFacts)
	if rate < s.dropRate-0.1 || rate > s.dropRate+0.1 {
		t.Errorf("observed drop rate %.3f, configured %.2f", rate, s.dropRate)
	}
	_ = keptRel
}

// TestWorldJSONRoundTrip decodes WriteJSON's document with encoding/json
// and checks every entity and fact field is written, facts in ID order.
func TestWorldJSONRoundTrip(t *testing.T) {
	w := MustGenerate(smallConfig())
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Entities []struct {
			ID   int    `json:"id"`
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"entities"`
		Facts []struct {
			S   int    `json:"s"`
			R   string `json:"r"`
			O   int    `json:"o"`
			Lit string `json:"lit"`
			Ord int    `json:"ord"`
		} `json:"facts"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Entities) != len(w.Entities) || len(doc.Facts) != len(w.Facts) {
		t.Fatalf("sizes: %d/%d entities, %d/%d facts",
			len(doc.Entities), len(w.Entities), len(doc.Facts), len(w.Facts))
	}
	for i, e := range w.Entities {
		if got := doc.Entities[i]; got.ID != e.ID || got.Kind != e.Kind.String() || got.Name != e.Name {
			t.Fatalf("entity %d written as %+v, want %+v", i, got, e)
		}
	}
	for i, f := range w.Facts {
		got := doc.Facts[i]
		if f.ID != i || got.S != f.Subject || got.R != string(f.Rel) || got.O != f.Object ||
			got.Lit != f.Literal || got.Ord != f.Ord {
			t.Fatalf("fact %d written as %+v, want %+v", i, got, f)
		}
	}
}

// TestEntityByFoldFirstInWorldOrder: names that fold alike resolve to the
// first of them in world order, whatever case the query is in.
func TestEntityByFoldFirstInWorldOrder(t *testing.T) {
	w := &World{Entities: []Entity{{ID: 0, Name: "Lake Orin"}, {ID: 1, Name: "LAKE ORIN"}, {ID: 2, Name: "Mount Kesh"}}}
	w.index()
	for _, q := range []string{"lake orin", "LAKE ORIN", "Lake Orin", "lAkE oRiN"} {
		if e, ok := w.EntityByFold(q); !ok || e.ID != 0 {
			t.Errorf("%q folds to %d (%v), want the first in world order, 0", q, e.ID, ok)
		}
	}
	if e, ok := w.EntityByFold("mount KESH"); !ok || e.ID != 2 {
		t.Errorf("mount KESH folds to %d (%v), want 2", e.ID, ok)
	}
	if _, ok := w.EntityByFold("Lake Orin 2"); ok {
		t.Error("a name no entity folds to resolved")
	}
}
