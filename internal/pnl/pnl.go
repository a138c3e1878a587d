// Package pnl models smartphone Preferred Network Lists: which networks a
// phone remembers, which of those are open (auto-joinable by an evil twin),
// and how lists correlate between people walking together.
//
// The attack's success probabilities all flow from this model, so its shape
// matters more than its size:
//
//   - Public open networks (chains, venue Wi-Fi, cafés) are adopted with
//     probability proportional to a sub-linear power of the SSID's crowd
//     heat — people remember networks from places they visit, and visits
//     track crowd density. This makes the attacker's heat-ranked WiGLE
//     seeding effective, exactly as the paper found (74 % of broadcast hits
//     came from WiGLE-sourced SSIDs).
//   - Private home/work networks are secured and unique per household;
//     they dominate PNL contents and are useless to the attacker, which is
//     why MANA's harvested database has such low quality.
//   - Carrier hotspot SSIDs (the paper's PCCW1x example) are pre-installed
//     on a fraction of phones and never appear in directed probes, so the
//     attacker can only exploit them by seeding them explicitly (§V-B).
//   - Companions (family, friends) share a configurable fraction of their
//     entries — the basis of the freshness effect.
package pnl

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"cityhunter/internal/geo"
	"cityhunter/internal/heatmap"
	"cityhunter/internal/wigle"
)

// Network is one PNL entry.
type Network struct {
	// SSID is the remembered network name.
	SSID string
	// Open marks networks the phone will auto-join without credentials;
	// an evil twin advertising this SSID captures the phone.
	Open bool
	// Hidden entries are never included in directed probes (iOS treats
	// carrier-provisioned entries this way), so neither KARMA nor MANA can
	// learn them over the air.
	Hidden bool
}

// List is a phone's preferred network list.
type List []Network

// Contains reports whether the list holds ssid.
func (l List) Contains(ssid string) bool {
	for _, n := range l {
		if n.SSID == ssid {
			return true
		}
	}
	return false
}

// OpenSSID reports whether ssid is an open entry — the hit condition for an
// evil twin advertising an unencrypted network.
func (l List) OpenSSID(ssid string) bool {
	for _, n := range l {
		if n.SSID == ssid && n.Open {
			return true
		}
	}
	return false
}

// Probeable returns the SSIDs a direct-probing phone discloses: every entry
// except hidden ones.
func (l List) Probeable() []string {
	var out []string
	for _, n := range l {
		if !n.Hidden {
			out = append(out, n.SSID)
		}
	}
	return out
}

// CarrierNetwork pairs a carrier hotspot SSID with its subscriber share.
type CarrierNetwork struct {
	SSID string
	// Share is the carrier's share among carrier-provisioned phones.
	Share float64
}

// DefaultCarriers mirrors the paper's Hong Kong example: carrier hotspot
// SSIDs that iOS pre-installs for subscribers.
func DefaultCarriers() []CarrierNetwork {
	return []CarrierNetwork{
		{SSID: "PCCW1x", Share: 0.4},
		{SSID: "CSL Auto Connect", Share: 0.3},
		{SSID: "3HK Wi-Fi", Share: 0.2},
		{SSID: "SmarTone Auto", Share: 0.1},
	}
}

// Config tunes the generator. The defaults reproduce the paper's observed
// rates; see EXPERIMENTS.md for the calibration.
type Config struct {
	// PublicUserFraction is the share of phones that use public Wi-Fi at
	// all. Adoption is zero-inflated: non-users remember no open public
	// networks, users remember 1 + Poisson(MeanPublicEntries) of them.
	// The clustering matters: it is why MANA's early harvest — fed by a
	// handful of unsafe phones — still contains a few genuinely popular
	// SSIDs.
	PublicUserFraction float64
	// MeanPublicEntries is the Poisson mean of open public networks a
	// public-Wi-Fi user remembers beyond the first.
	MeanPublicEntries float64
	// MeanLocalEntries is the Poisson mean of venue-local open networks
	// per phone generated at a venue (people nearby have often joined
	// nearby APs — the rationale for the attacker's nearby-100 selection).
	MeanLocalEntries float64
	// MeanPrivateEntries is the Poisson mean of secured home/work
	// networks per phone.
	MeanPrivateEntries float64
	// AdoptionExponent is the power applied to SSID heat when building
	// the adoption distribution; values below 1 flatten the head.
	AdoptionExponent float64
	// CarrierFraction is the fraction of phones with a pre-installed
	// carrier hotspot entry.
	CarrierFraction float64
	// Carriers is the carrier SSID set; nil selects DefaultCarriers.
	Carriers []CarrierNetwork
	// CompanionShare is the probability a companion copies each entry of
	// the group leader's list.
	CompanionShare float64
	// UnsafeExtraOpen is the Poisson mean of additional open public
	// entries on phones that still send directed probes. The paper's
	// KARMA baseline hits ~28 % of direct probers — noticeably above the
	// broadcast ceiling — because the unsafe population skews towards
	// older devices with more legacy open networks remembered.
	UnsafeExtraOpen float64
	// LocalPoolSize is how many nearest open SSIDs form a venue's local
	// adoption pool.
	LocalPoolSize int
	// LocalPoolRadius caps how far (metres) a local-pool SSID's nearest
	// AP may be from the venue.
	LocalPoolRadius float64
	// AvailabilityReference is the open-AP count at which the full
	// PublicUserFraction applies. Thinner ecosystems scale the user
	// fraction down proportionally: where there is little public Wi-Fi,
	// few phones have ever joined any. Zero selects 5000 (the calibrated
	// dense city has ≈5900 open APs, so its fraction is unscaled).
	AvailabilityReference float64
}

// DefaultConfig returns the calibrated generator configuration.
func DefaultConfig() Config {
	return Config{
		PublicUserFraction:    0.17,
		MeanPublicEntries:     0.55,
		MeanLocalEntries:      0.04,
		MeanPrivateEntries:    4.0,
		AdoptionExponent:      0.28,
		CarrierFraction:       0.12,
		CompanionShare:        0.55,
		UnsafeExtraOpen:       0.30,
		LocalPoolSize:         25,
		LocalPoolRadius:       900,
		AvailabilityReference: 5000,
	}
}

// Model generates PNLs for a given city.
type Model struct {
	cfg      Config
	db       *wigle.DB
	carriers []CarrierNetwork

	// Adoption distribution over open public SSIDs.
	publicSSIDs []string
	publicCum   []float64 // cumulative weights for binary-search sampling

	// effectiveUserFraction is PublicUserFraction scaled by public-Wi-Fi
	// availability (see Config.AvailabilityReference).
	effectiveUserFraction float64

	// privateUniverse is the pool of secured SSIDs homes draw from.
	privateUniverse []string

	// localPools caches the venue-local pools by exact query position, so
	// a cached pool is a pure function of its key: results never depend on
	// which caller touched a neighbourhood first (venue positions sit
	// close enough — station and passage are 60 m apart — that a coarser
	// key would let one workload poison another's pool on a shared model).
	// The mutex makes the cache safe for concurrent experiment runs
	// sharing one model; everything else in the model is read-only after
	// construction.
	localPoolMu sync.Mutex
	localPools  map[geo.Point][]string
}

// NewModel derives the adoption model from the city database and heat map.
func NewModel(db *wigle.DB, hm *heatmap.Map, cfg Config) (*Model, error) {
	if cfg.MeanPublicEntries < 0 || cfg.MeanLocalEntries < 0 || cfg.MeanPrivateEntries < 0 {
		return nil, fmt.Errorf("pnl: negative entry means")
	}
	if cfg.PublicUserFraction < 0 || cfg.PublicUserFraction > 1 {
		return nil, fmt.Errorf("pnl: public user fraction %v outside [0,1]", cfg.PublicUserFraction)
	}
	if cfg.CarrierFraction < 0 || cfg.CarrierFraction > 1 {
		return nil, fmt.Errorf("pnl: carrier fraction %v outside [0,1]", cfg.CarrierFraction)
	}
	if cfg.CompanionShare < 0 || cfg.CompanionShare > 1 {
		return nil, fmt.Errorf("pnl: companion share %v outside [0,1]", cfg.CompanionShare)
	}
	m := &Model{
		cfg:        cfg,
		db:         db,
		carriers:   cfg.Carriers,
		localPools: make(map[geo.Point][]string),
	}
	if m.carriers == nil {
		m.carriers = DefaultCarriers()
	}

	ranked := hm.RankByHeat(db.OpenPositionsBySSID())
	m.publicSSIDs = make([]string, 0, len(ranked))
	m.publicCum = make([]float64, 0, len(ranked))
	sum := 0.0
	for _, sh := range ranked {
		w := math.Pow(float64(sh.Heat)+1, cfg.AdoptionExponent)
		sum += w
		m.publicSSIDs = append(m.publicSSIDs, sh.SSID)
		m.publicCum = append(m.publicCum, sum)
	}

	openAPs := 0
	for _, c := range db.CountBySSID(true) {
		openAPs += c
	}
	ref := cfg.AvailabilityReference
	if ref <= 0 {
		ref = 5000
	}
	scale := float64(openAPs) / ref
	if scale > 1 {
		scale = 1
	}
	m.effectiveUserFraction = cfg.PublicUserFraction * scale

	openBySSID := db.CountBySSID(true)
	for ssid, count := range db.CountBySSID(false) {
		if count == 1 {
			if openBySSID[ssid] == 0 {
				m.privateUniverse = append(m.privateUniverse, ssid)
			}
		}
	}
	sort.Strings(m.privateUniverse)
	return m, nil
}

// PublicUniverseSize returns the number of open public SSIDs in the
// adoption distribution.
func (m *Model) PublicUniverseSize() int { return len(m.publicSSIDs) }

// AdoptionProbability returns the probability that one public-entry draw
// selects ssid, or 0 when the SSID is not in the universe.
func (m *Model) AdoptionProbability(ssid string) float64 {
	if len(m.publicCum) == 0 {
		return 0
	}
	total := m.publicCum[len(m.publicCum)-1]
	prev := 0.0
	for i, s := range m.publicSSIDs {
		if s == ssid {
			return (m.publicCum[i] - prev) / total
		}
		prev = m.publicCum[i]
	}
	return 0
}

// samplePublic draws one SSID from the adoption distribution.
func (m *Model) samplePublic(rng *rand.Rand) string {
	if len(m.publicCum) == 0 {
		return ""
	}
	total := m.publicCum[len(m.publicCum)-1]
	x := rng.Float64() * total
	lo, hi := 0, len(m.publicCum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if m.publicCum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return m.publicSSIDs[lo]
}

// localPool returns the venue-local open SSIDs for a position, cached per
// exact position (callers query at canonical venue/site positions, so the
// cache stays small).
func (m *Model) localPool(at geo.Point) []string {
	key := at
	m.localPoolMu.Lock()
	pool, ok := m.localPools[key]
	m.localPoolMu.Unlock()
	if ok {
		return pool
	}
	// An SSID's closest AP is met first, so capping the walk at the pool
	// radius drops exactly the SSIDs whose nearest AP is too far.
	pool = m.db.NearestSSIDsWithin(at, m.cfg.LocalPoolSize, m.cfg.LocalPoolRadius)
	m.localPoolMu.Lock()
	m.localPools[key] = pool
	m.localPoolMu.Unlock()
	return pool
}

// NewList generates a fresh PNL for a phone observed at position at.
func (m *Model) NewList(rng *rand.Rand, at geo.Point) List {
	var l List
	add := func(n Network) {
		if n.SSID != "" && !l.Contains(n.SSID) {
			l = append(l, n)
		}
	}
	if rng.Float64() < m.effectiveUserFraction {
		for i, k := 0, 1+poisson(rng, m.cfg.MeanPublicEntries); i < k; i++ {
			add(Network{SSID: m.samplePublic(rng), Open: true})
		}
	}
	if pool := m.localPool(at); len(pool) > 0 {
		for i, k := 0, poisson(rng, m.cfg.MeanLocalEntries); i < k; i++ {
			add(Network{SSID: pool[rng.Intn(len(pool))], Open: true})
		}
	}
	if n := len(m.privateUniverse); n > 0 {
		for i, k := 0, poisson(rng, m.cfg.MeanPrivateEntries); i < k; i++ {
			add(Network{SSID: m.privateUniverse[rng.Intn(n)], Open: false})
		}
	}
	if rng.Float64() < m.cfg.CarrierFraction {
		add(Network{SSID: m.sampleCarrier(rng), Open: true, Hidden: true})
	}
	return l
}

// AugmentUnsafe adds the unsafe-population extra open entries to a list
// and returns it. Callers apply it to phones flagged as direct probers.
func (m *Model) AugmentUnsafe(rng *rand.Rand, l List) List {
	for i, k := 0, poisson(rng, m.cfg.UnsafeExtraOpen); i < k; i++ {
		ssid := m.samplePublic(rng)
		if ssid != "" && !l.Contains(ssid) {
			l = append(l, Network{SSID: ssid, Open: true})
		}
	}
	return l
}

// NewCompanionList generates a PNL for someone walking with the owner of
// leader: each leader entry is copied with probability CompanionShare, then
// the companion gets its own independent draws on top.
func (m *Model) NewCompanionList(rng *rand.Rand, at geo.Point, leader List) List {
	var l List
	for _, n := range leader {
		if rng.Float64() < m.cfg.CompanionShare {
			l = append(l, n)
		}
	}
	for _, n := range m.NewList(rng, at) {
		if !l.Contains(n.SSID) {
			l = append(l, n)
		}
	}
	return l
}

func (m *Model) sampleCarrier(rng *rand.Rand) string {
	total := 0.0
	for _, c := range m.carriers {
		total += c.Share
	}
	if total == 0 {
		return ""
	}
	x := rng.Float64() * total
	for _, c := range m.carriers {
		if x < c.Share {
			return c.SSID
		}
		x -= c.Share
	}
	return m.carriers[len(m.carriers)-1].SSID
}

// EffectiveUserFraction returns the availability-scaled share of phones
// that remember any open public network.
func (m *Model) EffectiveUserFraction() float64 { return m.effectiveUserFraction }

// CarrierSSIDs returns the carrier SSID set the model provisions.
func (m *Model) CarrierSSIDs() []string {
	out := make([]string, len(m.carriers))
	for i, c := range m.carriers {
		out[i] = c.SSID
	}
	return out
}

// poisson draws from a Poisson distribution with the given mean using
// Knuth's method (the means here are small, so it is fast).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 { // guard against pathological means
			return k
		}
	}
}
