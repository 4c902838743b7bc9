// Package world generates the deterministic synthetic world that replaces
// Wikidata/Freebase dumps and the paper's three datasets (docs/architecture.md, "Layer map").
//
// The world is a set of typed entities connected by canonical facts. The
// same world is rendered into two different KG schemas (internal/kg), drives
// question generation (internal/datasets), and seeds the simulated LLM's
// imperfect parametric memory (internal/llm). Keeping one underlying world
// with multiple projections is what makes the paper's multi-source
// generalisation experiment (Table III) meaningful here: the facts agree,
// the schemas do not.
package world

import (
	"fmt"
	"sort"
	"strings"
)

// Kind is an entity type.
type Kind int

const (
	KindPerson Kind = iota
	KindCity
	KindCountry
	KindContinent
	KindLake
	KindMountain
	KindRiver
	KindCompany
	KindUniversity
	KindWork
	KindAward
	KindField
	KindLanguage
	kindCount
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPerson:
		return "person"
	case KindCity:
		return "city"
	case KindCountry:
		return "country"
	case KindContinent:
		return "continent"
	case KindLake:
		return "lake"
	case KindMountain:
		return "mountain range"
	case KindRiver:
		return "river"
	case KindCompany:
		return "company"
	case KindUniversity:
		return "university"
	case KindWork:
		return "work"
	case KindAward:
		return "award"
	case KindField:
		return "field"
	case KindLanguage:
		return "language"
	default:
		return "unknown"
	}
}

// Entity is one world entity.
type Entity struct {
	ID   int
	Kind Kind
	Name string
}

// RelKey identifies a canonical relation, independent of KG schema.
type RelKey string

// Canonical relations. Each has a Wikidata-flavoured label and a
// Freebase-flavoured path (see Schema in internal/world/render.go).
const (
	RelBornIn      RelKey = "born_in"
	RelBirthDate   RelKey = "birth_date"
	RelOccupation  RelKey = "occupation"
	RelAward       RelKey = "award"
	RelEducatedAt  RelKey = "educated_at"
	RelFieldOfWork RelKey = "field_of_work"
	RelNotableWork RelKey = "notable_work"
	RelCitizenOf   RelKey = "citizen_of"

	RelInCountry  RelKey = "in_country"
	RelPopulation RelKey = "population"

	RelCapital      RelKey = "capital"
	RelContinent    RelKey = "continent"
	RelOfficialLang RelKey = "official_language"

	RelArea      RelKey = "area"
	RelLocatedIn RelKey = "located_in"
	RelInflow    RelKey = "inflow"

	RelCovers    RelKey = "covers"
	RelElevation RelKey = "elevation"

	RelFlowsThrough RelKey = "flows_through"
	RelLength       RelKey = "length"

	RelFoundedBy    RelKey = "founded_by"
	RelHeadquarters RelKey = "headquarters"
	RelIndustry     RelKey = "industry"
	RelProduct      RelKey = "product"

	RelUnivIn    RelKey = "university_in"
	RelInception RelKey = "inception"

	RelCreator  RelKey = "creator"
	RelGenre    RelKey = "genre"
	RelPubYear  RelKey = "publication_year"
	RelAwardFor RelKey = "award_field"
)

// RelInfo describes a canonical relation.
type RelInfo struct {
	Key RelKey
	// SubjectKind constrains subjects; ObjectKind is the object's entity
	// kind when the relation is entity-valued (ObjectLiteral false).
	SubjectKind Kind
	ObjectKind  Kind
	// ObjectLiteral is true when the object is a literal (number, date).
	ObjectLiteral bool
	// Functional relations have exactly one current value per subject.
	Functional bool
	// TimeVarying relations (population) have multiple ordinal values; the
	// latest is the correct answer.
	TimeVarying bool
}

// Relations lists every canonical relation, in stable order.
var Relations = []RelInfo{
	{Key: RelBornIn, SubjectKind: KindPerson, ObjectKind: KindCity, Functional: true},
	{Key: RelBirthDate, SubjectKind: KindPerson, ObjectLiteral: true, Functional: true},
	{Key: RelOccupation, SubjectKind: KindPerson, ObjectKind: KindField, Functional: true},
	{Key: RelAward, SubjectKind: KindPerson, ObjectKind: KindAward},
	{Key: RelEducatedAt, SubjectKind: KindPerson, ObjectKind: KindUniversity, Functional: true},
	{Key: RelFieldOfWork, SubjectKind: KindPerson, ObjectKind: KindField, Functional: true},
	{Key: RelNotableWork, SubjectKind: KindPerson, ObjectKind: KindWork},
	{Key: RelCitizenOf, SubjectKind: KindPerson, ObjectKind: KindCountry, Functional: true},

	{Key: RelInCountry, SubjectKind: KindCity, ObjectKind: KindCountry, Functional: true},
	{Key: RelPopulation, SubjectKind: KindCity, ObjectLiteral: true, Functional: true, TimeVarying: true},

	{Key: RelCapital, SubjectKind: KindCountry, ObjectKind: KindCity, Functional: true},
	{Key: RelContinent, SubjectKind: KindCountry, ObjectKind: KindContinent, Functional: true},
	{Key: RelOfficialLang, SubjectKind: KindCountry, ObjectKind: KindLanguage, Functional: true},

	{Key: RelArea, SubjectKind: KindLake, ObjectLiteral: true, Functional: true},
	{Key: RelLocatedIn, SubjectKind: KindLake, ObjectKind: KindCountry, Functional: true},
	{Key: RelInflow, SubjectKind: KindLake, ObjectKind: KindRiver},

	{Key: RelCovers, SubjectKind: KindMountain, ObjectKind: KindCountry},
	{Key: RelElevation, SubjectKind: KindMountain, ObjectLiteral: true, Functional: true},

	{Key: RelFlowsThrough, SubjectKind: KindRiver, ObjectKind: KindCountry},
	{Key: RelLength, SubjectKind: KindRiver, ObjectLiteral: true, Functional: true},

	{Key: RelFoundedBy, SubjectKind: KindCompany, ObjectKind: KindPerson, Functional: true},
	{Key: RelHeadquarters, SubjectKind: KindCompany, ObjectKind: KindCity, Functional: true},
	{Key: RelIndustry, SubjectKind: KindCompany, ObjectKind: KindField, Functional: true},
	{Key: RelProduct, SubjectKind: KindCompany, ObjectKind: KindWork},

	{Key: RelUnivIn, SubjectKind: KindUniversity, ObjectKind: KindCity, Functional: true},
	{Key: RelInception, SubjectKind: KindUniversity, ObjectLiteral: true, Functional: true},

	{Key: RelCreator, SubjectKind: KindWork, ObjectKind: KindPerson, Functional: true},
	{Key: RelGenre, SubjectKind: KindWork, ObjectKind: KindField, Functional: true},
	{Key: RelPubYear, SubjectKind: KindWork, ObjectLiteral: true, Functional: true},

	{Key: RelAwardFor, SubjectKind: KindAward, ObjectKind: KindField, Functional: true},
}

// RelByKey returns the RelInfo for a key.
func RelByKey(key RelKey) (RelInfo, bool) {
	for _, r := range Relations {
		if r.Key == key {
			return r, true
		}
	}
	return RelInfo{}, false
}

// Fact is one canonical statement: subject entity, relation, and either an
// object entity or a literal value. Ord orders time-varying values; the
// highest Ord is current.
type Fact struct {
	ID      int
	Subject int
	Rel     RelKey
	Object  int    // entity ID, or -1 for literal facts
	Literal string // literal surface, e.g. "1443497378" or "1927-09-04"
	Ord     int
}

// ObjectIsEntity reports whether the fact's object is an entity reference.
func (f Fact) ObjectIsEntity() bool { return f.Object >= 0 }

// World is the generated universe.
type World struct {
	Entities []Entity
	Facts    []Fact

	byKind map[Kind][]int
	// bySR maps (subject, rel) to fact indices in Ord order.
	bySR map[srKey][]int
	// bySubject maps subject entity to its fact indices.
	bySubject map[int][]int
	// byRel maps relation to fact indices.
	byRel map[RelKey][]int
	// byName maps entity name to ID (names are unique by construction).
	byName map[string]int
	// byFold maps a lower-cased entity name to the ID of the first entity,
	// in world order, whose name lower-cases to it.
	byFold map[string]int
}

type srKey struct {
	subject int
	rel     RelKey
}

// index (re)builds lookup maps; the generator calls it once.
func (w *World) index() {
	w.byKind = make(map[Kind][]int)
	w.bySR = make(map[srKey][]int)
	w.bySubject = make(map[int][]int)
	w.byRel = make(map[RelKey][]int)
	w.byName = make(map[string]int, len(w.Entities))
	w.byFold = make(map[string]int, len(w.Entities))
	for _, e := range w.Entities {
		w.byKind[e.Kind] = append(w.byKind[e.Kind], e.ID)
		w.byName[e.Name] = e.ID
		folded := strings.ToLower(e.Name)
		if _, seen := w.byFold[folded]; !seen {
			w.byFold[folded] = e.ID
		}
	}
	for i, f := range w.Facts {
		k := srKey{f.Subject, f.Rel}
		w.bySR[k] = append(w.bySR[k], i)
		w.bySubject[f.Subject] = append(w.bySubject[f.Subject], i)
		w.byRel[f.Rel] = append(w.byRel[f.Rel], i)
	}
	for _, ids := range w.bySR {
		sort.SliceStable(ids, func(a, b int) bool {
			return w.Facts[ids[a]].Ord < w.Facts[ids[b]].Ord
		})
	}
}

// EntityByName looks an entity up by exact name.
func (w *World) EntityByName(name string) (Entity, bool) {
	id, ok := w.byName[name]
	if !ok {
		return Entity{}, false
	}
	return w.Entities[id], true
}

// EntityByFold looks an entity up by name ignoring case: the first
// entity, in world order, whose lower-cased name is name's.
func (w *World) EntityByFold(name string) (Entity, bool) {
	id, ok := w.byFold[strings.ToLower(name)]
	if !ok {
		return Entity{}, false
	}
	return w.Entities[id], true
}

// OfKind returns all entity IDs of a kind, in creation order.
func (w *World) OfKind(k Kind) []int {
	return w.byKind[k]
}

// FactsOf returns the facts whose subject is the given entity.
func (w *World) FactsOf(subject int) []Fact {
	idxs := w.bySubject[subject]
	out := make([]Fact, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, w.Facts[i])
	}
	return out
}

// FactsSR returns the facts for (subject, relation) in Ord order.
func (w *World) FactsSR(subject int, rel RelKey) []Fact {
	idxs := w.bySR[srKey{subject, rel}]
	out := make([]Fact, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, w.Facts[i])
	}
	return out
}

// CurrentFact returns the latest-ordinal fact for (subject, relation), used
// for time-varying relations where only the newest value is correct.
func (w *World) CurrentFact(subject int, rel RelKey) (Fact, bool) {
	fs := w.FactsSR(subject, rel)
	if len(fs) == 0 {
		return Fact{}, false
	}
	return fs[len(fs)-1], true
}

// FactsByRel returns all facts with the given relation.
func (w *World) FactsByRel(rel RelKey) []Fact {
	idxs := w.byRel[rel]
	out := make([]Fact, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, w.Facts[i])
	}
	return out
}

// ObjectSurface returns the fact's object as display text: the entity name
// or the literal.
func (w *World) ObjectSurface(f Fact) string {
	if f.ObjectIsEntity() {
		return w.Entities[f.Object].Name
	}
	return f.Literal
}

// Stats summarises the world.
type Stats struct {
	Entities int
	Facts    int
	ByKind   map[string]int
}

// Stats returns world statistics.
func (w *World) Stats() Stats {
	s := Stats{Entities: len(w.Entities), Facts: len(w.Facts), ByKind: map[string]int{}}
	for _, e := range w.Entities {
		s.ByKind[e.Kind.String()]++
	}
	return s
}

// String renders the stats.
func (s Stats) String() string {
	return fmt.Sprintf("world: %d entities, %d facts", s.Entities, s.Facts)
}
