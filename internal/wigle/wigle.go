// Package wigle implements the offline substitute for the Wireless
// Geographic Logging Engine (WiGLE) that City-Hunter seeds its SSID
// database from. It stores access-point records with geographic locations
// and answers the paper's two selection queries: the SSIDs nearest an
// attack location, and city-wide SSID statistics (AP counts, and — combined
// with a heat map — per-SSID heat values).
//
// The real WiGLE is a crowd-sourced web service; this package holds the
// same record shape in memory with JSON persistence, which preserves the
// behaviour the attack depends on while staying fully offline.
package wigle

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"

	"cityhunter/internal/geo"
	"cityhunter/internal/heatmap"
)

// Record is one observed access point.
type Record struct {
	// SSID is the network name. Many records may share one SSID (chain
	// shops, city Wi-Fi programmes).
	SSID string `json:"ssid"`
	// BSSID is the AP's MAC in string form.
	BSSID string `json:"bssid"`
	// Pos is the AP location on the city plane.
	Pos geo.Point `json:"pos"`
	// Open reports whether the network is unencrypted. Only open networks
	// are usable by the attacker: association to them needs no credentials.
	Open bool `json:"open"`
	// Venue optionally names the venue or district the AP belongs to.
	Venue string `json:"venue,omitempty"`
}

// DB is an in-memory, spatially indexed collection of Records. Its records
// never change after New, so the attacker-seeding queries (RankByHeat and
// NearestSSIDs) are memoised on it: every engine seeded from one DB shares
// their answers. A DB is safe for concurrent use.
type DB struct {
	records []Record
	index   *geo.GridIndex
	bounds  geo.Rect

	mu sync.Mutex
	// ranked memoises RankByHeat per heat map.
	ranked map[*heatmap.Map]heatRanking
	// nearest memoises NearestSSIDs per query, up to nearestMemoCap
	// entries.
	nearest map[nearestQuery][]string
}

// heatRanking is a memoised RankByHeat answer with the photo count of the
// heat map it was ranked at.
type heatRanking struct {
	photos int
	ranked []heatmap.SSIDHeat
}

// nearestQuery keys the NearestSSIDs memo.
type nearestQuery struct {
	p geo.Point
	n int
}

// nearestMemoCap bounds the NearestSSIDs memo. Worlds query a handful of
// venue positions, but a long-lived job server takes arbitrary positions
// from submitted plans; past the cap answers are computed and not stored.
const nearestMemoCap = 256

// SSIDCount is an SSID with its number of APs; the city-wide ranking unit.
type SSIDCount struct {
	SSID  string `json:"ssid"`
	Count int    `json:"count"`
}

// New builds a DB over the given city bounds. Records may lie anywhere;
// bounds only size the spatial index.
func New(bounds geo.Rect, records []Record) (*DB, error) {
	cell := bounds.Width() / 64
	if h := bounds.Height() / 64; h > cell {
		cell = h
	}
	if cell <= 0 {
		return nil, fmt.Errorf("wigle: bounds %v have no area", bounds)
	}
	idx, err := geo.NewGridIndex(bounds, cell)
	if err != nil {
		return nil, fmt.Errorf("wigle: build index: %w", err)
	}
	db := &DB{
		records: make([]Record, len(records)),
		index:   idx,
		bounds:  bounds,
		ranked:  make(map[*heatmap.Map]heatRanking),
		nearest: make(map[nearestQuery][]string),
	}
	copy(db.records, records)
	for i, r := range db.records {
		idx.Insert(i, r.Pos)
	}
	return db, nil
}

// Len returns the number of records.
func (db *DB) Len() int { return len(db.records) }

// Records returns a copy of all records.
func (db *DB) Records() []Record {
	out := make([]Record, len(db.records))
	copy(out, db.records)
	return out
}

// NearestSSIDs returns up to n distinct SSIDs ordered by the distance of
// their closest AP to p. Only open networks are considered: the paper's
// nearby-SSID selection keeps free APs so that association succeeds without
// user interaction.
//
// Answers are memoised per (p, n) and shared between callers: the returned
// slice is read-only.
func (db *DB) NearestSSIDs(p geo.Point, n int) []string {
	if n <= 0 {
		return nil
	}
	q := nearestQuery{p: p, n: n}
	db.mu.Lock()
	defer db.mu.Unlock()
	if out, ok := db.nearest[q]; ok {
		return out
	}
	out := db.NearestSSIDsWithin(p, n, math.Inf(1))
	out = out[:len(out):len(out)]
	if len(db.nearest) < nearestMemoCap {
		db.nearest[q] = out
	}
	return out
}

// NearestSSIDsWithin is NearestSSIDs restricted to SSIDs with an open AP
// within radius metres of p.
//
// The records are walked once in (distance, record index) order, so each
// SSID is met first at its closest open AP. The search ring starts at 1/32
// of the city width and doubles; it stops once n SSIDs are found, at the
// first AP beyond radius, or after the first ring wider than the city's
// width plus height.
func (db *DB) NearestSSIDsWithin(p geo.Point, n int, radius float64) []string {
	if n <= 0 || radius < 0 {
		return nil
	}
	r2 := radius * radius
	maxR := math.Min(db.bounds.Width()+db.bounds.Height(), radius)
	seen := make(map[string]bool, n)
	var out []string
	db.index.VisitByDistance(p, db.bounds.Width()/32, maxR, func(id int) bool {
		r := &db.records[id]
		if r.Pos.Dist2(p) > r2 {
			return false
		}
		if !r.Open || seen[r.SSID] {
			return true
		}
		seen[r.SSID] = true
		out = append(out, r.SSID)
		return len(out) < n
	})
	return out
}

// CountBySSID returns the number of APs per SSID. When openOnly is set only
// open APs are counted.
func (db *DB) CountBySSID(openOnly bool) map[string]int {
	counts := make(map[string]int)
	for _, r := range db.records {
		if openOnly && !r.Open {
			continue
		}
		counts[r.SSID]++
	}
	return counts
}

// TopByAPCount returns the n SSIDs with the most open APs, descending, ties
// broken lexicographically for determinism. This is the naive city-wide
// ranking that Table IV contrasts with the heat ranking.
func (db *DB) TopByAPCount(n int) []SSIDCount {
	counts := db.CountBySSID(true)
	ranked := make([]SSIDCount, 0, len(counts))
	for ssid, c := range counts {
		ranked = append(ranked, SSIDCount{SSID: ssid, Count: c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Count != ranked[j].Count {
			return ranked[i].Count > ranked[j].Count
		}
		return ranked[i].SSID < ranked[j].SSID
	})
	if n < len(ranked) {
		ranked = ranked[:n]
	}
	return ranked
}

// RankByHeat returns the open SSIDs of the DB ranked by their heat value on
// hm, as hm.RankByHeat(db.OpenPositionsBySSID()) does. The ranking is
// memoised per heat map and recomputed once hm has gained photos since it
// was ranked. It is shared between callers: the returned slice is
// read-only.
func (db *DB) RankByHeat(hm *heatmap.Map) []heatmap.SSIDHeat {
	db.mu.Lock()
	defer db.mu.Unlock()
	if r, ok := db.ranked[hm]; ok && r.photos == hm.TotalPhotos() {
		return r.ranked
	}
	ranked := hm.RankByHeat(db.OpenPositionsBySSID())
	ranked = ranked[:len(ranked):len(ranked)]
	db.ranked[hm] = heatRanking{photos: hm.TotalPhotos(), ranked: ranked}
	return ranked
}

// OpenPositionsBySSID returns, for each SSID, the positions of its open
// APs. The heat-map ranking consumes this.
func (db *DB) OpenPositionsBySSID() map[string][]geo.Point {
	out := make(map[string][]geo.Point)
	for _, r := range db.records {
		if !r.Open {
			continue
		}
		out[r.SSID] = append(out[r.SSID], r.Pos)
	}
	return out
}

// SampleCrowdsourced returns a copy of the database with crowd-sourced
// coverage gaps: whole networks are missing with a probability that falls
// with how observable they are. Networks with at most 3 APs are dropped
// with probability missSmall, networks with 4–20 APs with missMid, and
// larger deployments (chains, venue Wi-Fi) are always present. The real
// WiGLE has exactly this bias — famous networks are thoroughly mapped,
// one-AP cafés often absent — and the gap is what makes over-the-air
// harvesting genuinely useful to City-Hunter (the paper's Fig. 6
// direct-probe-sourced hits).
func (db *DB) SampleCrowdsourced(rng *rand.Rand, missSmall, missMid float64) (*DB, error) {
	if missSmall < 0 || missSmall > 1 || missMid < 0 || missMid > 1 {
		return nil, fmt.Errorf("wigle: miss probabilities (%v, %v) outside [0,1]", missSmall, missMid)
	}
	counts := db.CountBySSID(false)
	keep := make(map[string]bool, len(counts))
	// Decide per SSID in sorted order so the sample is deterministic for
	// a given rng state.
	names := make([]string, 0, len(counts))
	for ssid := range counts {
		names = append(names, ssid)
	}
	sort.Strings(names)
	for _, ssid := range names {
		miss := 0.0
		switch c := counts[ssid]; {
		case c <= 3:
			miss = missSmall
		case c <= 20:
			miss = missMid
		}
		keep[ssid] = rng.Float64() >= miss
	}
	var kept []Record
	for _, r := range db.records {
		if keep[r.SSID] {
			kept = append(kept, r)
		}
	}
	return New(db.bounds, kept)
}

// fileFormat is the persisted JSON envelope.
type fileFormat struct {
	Bounds  geo.Rect `json:"bounds"`
	Records []Record `json:"records"`
}

// Save writes the DB as JSON to w.
func (db *DB) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(fileFormat{Bounds: db.bounds, Records: db.records}); err != nil {
		return fmt.Errorf("wigle: encode: %w", err)
	}
	return nil
}

// Load reads a DB previously written by Save.
func Load(r io.Reader) (*DB, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("wigle: decode: %w", err)
	}
	return New(ff.Bounds, ff.Records)
}

// SaveFile writes the DB to path.
func (db *DB) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wigle: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return db.Save(f)
}
