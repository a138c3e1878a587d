// Package core implements the City-Hunter engine: the weighted SSID
// database seeded from WiGLE and the heat map, its online updates, the
// Popularity and Freshness buffers with their ghost lists, the ARC-inspired
// adaptive size balancing, and the per-client untried-SSID rotation
// (paper §III–§IV).
//
// The engine plugs into the attacker base station through the
// attack.Strategy interface.
package core

import (
	"sort"
	"time"
)

// Source labels where a database entry was learnt from; Figure 6 breaks
// successful hits down by it.
type Source int

// Entry sources.
const (
	// SourceWiGLE marks entries from the city-wide heat-ranked selection.
	SourceWiGLE Source = iota + 1
	// SourceNearby marks entries from the nearest-to-the-attacker
	// selection. Figure 6 groups them with SourceWiGLE ("from WiGLE").
	SourceNearby
	// SourceDirectProbe marks entries harvested over the air.
	SourceDirectProbe
	// SourceCarrier marks the §V-B carrier-SSID seeding.
	SourceCarrier
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceWiGLE:
		return "wigle"
	case SourceNearby:
		return "nearby"
	case SourceDirectProbe:
		return "direct-probe"
	case SourceCarrier:
		return "carrier"
	default:
		return "unknown"
	}
}

// FromWiGLE reports whether the source counts as "from WiGLE" in the
// paper's Figure 6 breakdown (city-wide and nearby selections both do).
func (s Source) FromWiGLE() bool { return s == SourceWiGLE || s == SourceNearby }

// entry is one database record.
type entry struct {
	ssid   string
	source Source
	// weight is the popularity score: initialised by rank-ratio,
	// incremented on sightings and hits.
	weight float64
	// hits counts successful captures via this SSID.
	hits int
	// lastHit is the most recent capture time; meaningful when hasHit.
	lastHit time.Duration
	hasHit  bool
	// id is the entry's dense insertion index (0, 1, 2, ...). It breaks
	// weight ties deterministically (older first) and keys the per-track
	// sent sets and the per-reply chosen stamps, so the reply path never
	// hashes an SSID.
	id int
}

// database is the weighted SSID store with three lazily sorted views:
// by descending weight (popularity), by descending last-hit time
// (freshness), and by SSID (the "unordered" view: a deterministic order
// uncorrelated with popularity, standing in for the arbitrary storage
// order of the paper's §III preliminary design).
type database struct {
	entries map[string]*entry

	byWeight    []*entry
	weightDirty bool

	byFresh    []*entry
	freshDirty bool

	bySSID     []*entry
	ssidsDirty bool
}

func newDatabase() *database {
	return &database{entries: make(map[string]*entry)}
}

func (db *database) len() int { return len(db.entries) }

func (db *database) get(ssid string) (*entry, bool) {
	e, ok := db.entries[ssid]
	return e, ok
}

// add inserts a new entry or, if the SSID exists, raises its weight to at
// least w (keeping the original source). It returns the entry and reports
// whether it was created. The empty SSID is never stored: add returns nil.
func (db *database) add(ssid string, source Source, w float64) (*entry, bool) {
	if ssid == "" {
		return nil, false
	}
	if e, ok := db.entries[ssid]; ok {
		if w > e.weight {
			e.weight = w
			db.weightDirty = true
		}
		return e, false
	}
	e := &entry{ssid: ssid, source: source, weight: w, id: len(db.entries)}
	db.entries[ssid] = e
	db.byWeight = append(db.byWeight, e)
	db.weightDirty = true
	db.bySSID = append(db.bySSID, e)
	db.ssidsDirty = true
	return e, true
}

// bump raises an entry's weight by delta.
func (db *database) bump(e *entry, delta float64) {
	e.weight += delta
	db.weightDirty = true
}

// recordHit registers a successful capture via e at the given time.
func (db *database) recordHit(e *entry, now time.Duration, weightDelta float64) {
	e.hits++
	e.weight += weightDelta
	e.lastHit = now
	if !e.hasHit {
		e.hasHit = true
		db.byFresh = append(db.byFresh, e)
	}
	db.weightDirty = true
	db.freshDirty = true
}

// popularityRank returns the entries ordered by descending weight; ties go
// to the older entry. The returned slice is owned by the database — do not
// mutate.
func (db *database) popularityRank() []*entry {
	if db.weightDirty {
		sort.SliceStable(db.byWeight, func(i, j int) bool {
			if db.byWeight[i].weight != db.byWeight[j].weight {
				return db.byWeight[i].weight > db.byWeight[j].weight
			}
			return db.byWeight[i].id < db.byWeight[j].id
		})
		db.weightDirty = false
	}
	return db.byWeight
}

// unorderedRank returns all entries in SSID order — stable, deterministic,
// and uncorrelated with popularity.
func (db *database) unorderedRank() []*entry {
	if db.ssidsDirty {
		sort.Slice(db.bySSID, func(i, j int) bool {
			return db.bySSID[i].ssid < db.bySSID[j].ssid
		})
		db.ssidsDirty = false
	}
	return db.bySSID
}

// freshnessRank returns the entries with at least one hit ordered by
// descending last-hit time. The returned slice is owned by the database.
func (db *database) freshnessRank() []*entry {
	if db.freshDirty {
		sort.SliceStable(db.byFresh, func(i, j int) bool {
			if db.byFresh[i].lastHit != db.byFresh[j].lastHit {
				return db.byFresh[i].lastHit > db.byFresh[j].lastHit
			}
			return db.byFresh[i].id < db.byFresh[j].id
		})
		db.freshDirty = false
	}
	return db.byFresh
}
