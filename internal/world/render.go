package world

import (
	"fmt"
	"strings"

	"repro/internal/kg"
)

// Schema maps canonical relations onto a KG source's surface forms. The two
// concrete schemas deliberately differ in style — Wikidata uses verbose
// English property labels, Freebase uses slash-delimited type paths — so
// that cross-source experiments exercise real schema mismatch, as in the
// paper's Table III.
type Schema struct {
	Source kg.Source
	// relLabel maps canonical relation key to this schema's relation text.
	relLabel map[RelKey]string
	// entityCase transforms entity surface forms (Freebase lower-cases).
	entityCase func(string) string
	// dropRels lists relations with partial coverage in this schema, and
	// dropRate the per-fact probability of omission. This models the
	// paper's Table III observation that "some relations that are
	// single-hop in Freebase require multi-hop reasoning in Wikidata",
	// i.e. the same fact is not directly available in both sources.
	dropRels map[RelKey]bool
	dropRate float64
}

// wikidataLabels follows Wikidata property naming conventions.
var wikidataLabels = map[RelKey]string{
	RelBornIn:       "place of birth",
	RelBirthDate:    "date of birth",
	RelOccupation:   "occupation",
	RelAward:        "award received",
	RelEducatedAt:   "educated at",
	RelFieldOfWork:  "field of work",
	RelNotableWork:  "notable work",
	RelCitizenOf:    "country of citizenship",
	RelInCountry:    "country",
	RelPopulation:   "population",
	RelCapital:      "capital",
	RelContinent:    "continent",
	RelOfficialLang: "official language",
	RelArea:         "area",
	RelLocatedIn:    "country",
	RelInflow:       "inflows",
	RelCovers:       "covers country",
	RelElevation:    "elevation above sea level",
	RelFlowsThrough: "basin country",
	RelLength:       "length",
	RelFoundedBy:    "founded by",
	RelHeadquarters: "headquarters location",
	RelIndustry:     "industry",
	RelProduct:      "product or material produced",
	RelUnivIn:       "located in city",
	RelInception:    "inception",
	RelCreator:      "creator",
	RelGenre:        "genre",
	RelPubYear:      "publication date",
	RelAwardFor:     "field",
}

// freebaseLabels follows Freebase domain/type/property path conventions.
var freebaseLabels = map[RelKey]string{
	RelBornIn:       "people/person/place_of_birth",
	RelBirthDate:    "people/person/date_of_birth",
	RelOccupation:   "people/person/profession",
	RelAward:        "award/award_winner/awards_won",
	RelEducatedAt:   "education/education/institution",
	RelFieldOfWork:  "people/person/field_of_work",
	RelNotableWork:  "people/person/notable_works",
	RelCitizenOf:    "people/person/nationality",
	RelInCountry:    "location/location/containedby",
	RelPopulation:   "location/statistical_region/population",
	RelCapital:      "location/country/capital",
	RelContinent:    "location/location/continent",
	RelOfficialLang: "location/country/official_language",
	RelArea:         "geography/lake/surface_area",
	RelLocatedIn:    "location/location/containedby",
	RelInflow:       "geography/lake/inflow",
	RelCovers:       "geography/mountain_range/spans_country",
	RelElevation:    "geography/mountain/elevation",
	RelFlowsThrough: "geography/river/basin_countries",
	RelLength:       "geography/river/length",
	RelFoundedBy:    "organization/organization/founders",
	RelHeadquarters: "organization/organization/headquarters",
	RelIndustry:     "organization/organization/industry",
	RelProduct:      "business/company/product",
	RelUnivIn:       "education/university/city",
	RelInception:    "organization/organization/date_founded",
	RelCreator:      "media/work/created_by",
	RelGenre:        "media/work/genre",
	RelPubYear:      "media/work/release_date",
	RelAwardFor:     "award/award_category/field",
}

// WikidataSchema returns the Wikidata-flavoured schema. A fraction of the
// biography-style facts that SimpleQuestions asks about single-hop in
// Freebase is absent here (see Schema.dropRels), reproducing the source
// mismatch the paper cites in Table III.
func WikidataSchema() *Schema {
	return &Schema{
		Source:     kg.SourceWikidata,
		relLabel:   wikidataLabels,
		entityCase: func(s string) string { return s },
		dropRels: map[RelKey]bool{
			RelBirthDate:    true,
			RelOccupation:   true,
			RelInception:    true,
			RelPubYear:      true,
			RelHeadquarters: true,
			RelIndustry:     true,
			RelGenre:        true,
			RelElevation:    true,
		},
		dropRate: 0.60,
	}
}

// FreebaseSchema returns the Freebase-flavoured schema. Entity surfaces are
// lower-cased, mirroring Freebase MID label conventions in SimpleQuestions
// dumps; this forces the pipeline's case-insensitive matching paths to do
// real work.
func FreebaseSchema() *Schema {
	return &Schema{
		Source:     kg.SourceFreebase,
		relLabel:   freebaseLabels,
		entityCase: strings.ToLower,
	}
}

// SchemaFor returns the schema for a source.
func SchemaFor(src kg.Source) (*Schema, error) {
	switch src {
	case kg.SourceWikidata:
		return WikidataSchema(), nil
	case kg.SourceFreebase:
		return FreebaseSchema(), nil
	default:
		return nil, fmt.Errorf("world: no schema for source %q", src)
	}
}

// RelationLabel returns the schema's surface form for a canonical relation.
func (s *Schema) RelationLabel(key RelKey) string {
	if l, ok := s.relLabel[key]; ok {
		return l
	}
	// Fall back to the canonical key with underscores humanised, so new
	// relations degrade gracefully rather than vanishing.
	return strings.ReplaceAll(string(key), "_", " ")
}

// surfaceToRel maps every known relation surface form — Wikidata labels,
// Freebase paths, and humanised canonical keys — back to the canonical
// relation. Built once at init.
var surfaceToRel = func() map[string]RelKey {
	m := make(map[string]RelKey)
	add := func(s string, k RelKey) {
		s = strings.ToLower(strings.TrimSpace(s))
		if s == "" {
			return
		}
		if _, exists := m[s]; !exists {
			m[s] = k
		}
	}
	for _, r := range Relations {
		add(strings.ReplaceAll(string(r.Key), "_", " "), r.Key)
		add(wikidataLabels[r.Key], r.Key)
		add(freebaseLabels[r.Key], r.Key)
		// Freebase paths also appear humanised after Cypher decoding
		// ("people/person/place_of_birth" survives as-is in triple text,
		// but pseudo-graph decoding lower-cases underscores to spaces).
		add(strings.ReplaceAll(freebaseLabels[r.Key], "_", " "), r.Key)
	}
	return m
}()

// SurfaceToRel maps a relation surface form (any schema, any casing) back
// to the canonical relation, if recognised.
func SurfaceToRel(surface string) (RelKey, bool) {
	k, ok := surfaceToRel[strings.ToLower(strings.TrimSpace(surface))]
	return k, ok
}

// Covers reports whether this schema materialises the given fact; facts of
// partially covered relations are dropped deterministically by fact ID.
func (s *Schema) Covers(f Fact) bool {
	if s.dropRate <= 0 || !s.dropRels[f.Rel] {
		return true
	}
	h := fnv(uint64(f.ID)*2654435761 + uint64(s.Source))
	return float64(h>>11)/float64(1<<53) >= s.dropRate
}

// fnv scrambles an integer (splitmix-style) for coverage decisions.
func fnv(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Render materialises the whole world into a frozen triple store in this
// schema. Each entity's surface form is computed once, so every fact that
// names the entity holds the same string.
func (s *Schema) Render(w *World) *kg.Store {
	surface := make([]string, len(w.Entities))
	for i, e := range w.Entities {
		surface[i] = s.entityCase(e.Name)
	}
	st := kg.NewStore(s.Source)
	for _, f := range w.Facts {
		if !s.Covers(f) {
			continue
		}
		obj := f.Literal
		if f.ObjectIsEntity() {
			obj = surface[f.Object]
		}
		st.Add(kg.Triple{
			Subject:  surface[f.Subject],
			Relation: s.RelationLabel(f.Rel),
			Object:   obj,
			Source:   s.Source,
			Ord:      f.Ord,
		})
	}
	st.Freeze()
	return st
}
