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
	"slices"
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
	// weight ties deterministically (older first) and indexes the
	// per-track sent-kind arrays and the per-reply chosen stamps, so the
	// reply path never hashes an SSID.
	id int
}

// database is the weighted SSID store with three views, each kept in its
// order as entries change: by descending weight (popularity), by
// descending last-hit time (freshness), and by SSID (the "unordered" view:
// a deterministic order uncorrelated with popularity, standing in for the
// arbitrary storage order of the paper's §III preliminary design). Each
// view's order is strict and total (ties go to the older entry, and SSIDs
// are unique), so an entry whose key changes is moved to its one correct
// place by a binary search and a shift, and every view always reads
// exactly what a full sort would give.
type database struct {
	entries map[string]*entry

	byWeight []*entry
	byFresh  []*entry
	bySSID   []*entry
}

func newDatabase() *database {
	return &database{entries: make(map[string]*entry)}
}

func (db *database) len() int { return len(db.entries) }

func (db *database) get(ssid string) (*entry, bool) {
	e, ok := db.entries[ssid]
	return e, ok
}

// heavier is the popularity order: higher weight first, then the older
// entry.
func heavier(a, b *entry) bool {
	if a.weight != b.weight {
		return a.weight > b.weight
	}
	return a.id < b.id
}

// fresher is the freshness order: later last hit first, then the older
// entry.
func fresher(a, b *entry) bool {
	if a.lastHit != b.lastHit {
		return a.lastHit > b.lastHit
	}
	return a.id < b.id
}

// ssidBefore is the unordered view's order.
func ssidBefore(a, b *entry) bool { return a.ssid < b.ssid }

// search returns the number of entries in view that rank before e, which
// is e's index when e is in the view under the key it holds now, and its
// insertion point when it is not.
func search(view []*entry, e *entry, before func(a, b *entry) bool) int {
	return sort.Search(len(view), func(k int) bool { return !before(view[k], e) })
}

// insert adds e to view at its place.
func insert(view []*entry, e *entry, before func(a, b *entry) bool) []*entry {
	return slices.Insert(view, search(view, e, before), e)
}

// settle moves view[i], whose key just changed, to its place among the
// others, which are in order, shifting the ones it passes by one.
func settle(view []*entry, i int, before func(a, b *entry) bool) {
	e := view[i]
	switch {
	case i > 0 && before(e, view[i-1]):
		j := search(view[:i], e, before)
		copy(view[j+1:i+1], view[j:i])
		view[j] = e
	case i+1 < len(view) && before(view[i+1], e):
		j := i + search(view[i+1:], e, before)
		copy(view[i:j], view[i+1:j+1])
		view[j] = e
	}
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
			db.setWeight(e, w)
		}
		return e, false
	}
	e := &entry{ssid: ssid, source: source, weight: w, id: len(db.entries)}
	db.entries[ssid] = e
	db.byWeight = insert(db.byWeight, e, heavier)
	db.bySSID = insert(db.bySSID, e, ssidBefore)
	return e, true
}

// bump raises an entry's weight by delta.
func (db *database) bump(e *entry, delta float64) {
	db.setWeight(e, e.weight+delta)
}

// setWeight changes an entry's weight and moves it to its new place in
// the popularity view, found by searching on the weight it held before.
func (db *database) setWeight(e *entry, w float64) {
	i := search(db.byWeight, e, heavier)
	e.weight = w
	settle(db.byWeight, i, heavier)
}

// recordHit registers a successful capture via e at the given time.
func (db *database) recordHit(e *entry, now time.Duration, weightDelta float64) {
	e.hits++
	db.setWeight(e, e.weight+weightDelta)
	if !e.hasHit {
		e.hasHit = true
		e.lastHit = now
		db.byFresh = insert(db.byFresh, e, fresher)
		return
	}
	i := search(db.byFresh, e, fresher)
	e.lastHit = now
	settle(db.byFresh, i, fresher)
}

// popularityRank returns the entries ordered by descending weight; ties go
// to the older entry. The returned slice is owned by the database — do not
// mutate.
func (db *database) popularityRank() []*entry { return db.byWeight }

// unorderedRank returns all entries in SSID order — stable, deterministic,
// and uncorrelated with popularity.
func (db *database) unorderedRank() []*entry { return db.bySSID }

// freshnessRank returns the entries with at least one hit ordered by
// descending last-hit time; ties go to the older entry. The returned slice
// is owned by the database.
func (db *database) freshnessRank() []*entry { return db.byFresh }
