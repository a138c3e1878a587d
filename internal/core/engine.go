package core

import (
	"fmt"
	"math/rand"
	"time"

	"cityhunter/internal/ieee80211"
	"cityhunter/internal/linker"
	"cityhunter/internal/obs"
)

// BufferKind labels which selection bucket an SSID was served from; the
// Figure 6 breakdown and the buffer adaptation both consume it.
type BufferKind int

// Buffer kinds.
const (
	// KindPopularity marks regular Popularity Buffer picks.
	KindPopularity BufferKind = iota + 1
	// KindPopularityGhost marks random picks from PB's ghost list.
	KindPopularityGhost
	// KindFreshness marks regular Freshness Buffer picks.
	KindFreshness
	// KindFreshnessGhost marks random picks from FB's ghost list.
	KindFreshnessGhost
	// KindMirror marks KARMA-style responses to directed probes.
	KindMirror
)

// String implements fmt.Stringer.
func (k BufferKind) String() string {
	switch k {
	case KindPopularity:
		return "popularity"
	case KindPopularityGhost:
		return "popularity-ghost"
	case KindFreshness:
		return "freshness"
	case KindFreshnessGhost:
		return "freshness-ghost"
	case KindMirror:
		return "mirror"
	default:
		return "unknown"
	}
}

// FromPopularity reports whether the kind belongs to the popularity side
// (buffer or ghost) in the paper's Figure 6 grouping.
func (k BufferKind) FromPopularity() bool {
	return k == KindPopularity || k == KindPopularityGhost
}

// FromFreshness reports whether the kind belongs to the freshness side.
func (k BufferKind) FromFreshness() bool {
	return k == KindFreshness || k == KindFreshnessGhost
}

// HitRecord is one successful capture with full attribution.
type HitRecord struct {
	// MAC is the victim's over-the-air MAC at capture time (under MAC
	// randomization, one of possibly many the device used).
	MAC ieee80211.MAC
	// Track is the attacker-assigned device track the victim was linked
	// to; the identity linker gives every distinct MAC its own track.
	Track linker.TrackID
	// SSID lured it.
	SSID string
	// At is the capture time.
	At time.Duration
	// Source says where the SSID was learnt (WiGLE/nearby/direct/carrier).
	Source Source
	// Kind says which buffer served it (mirror for directed-probe hits).
	Kind BufferKind
}

// StateSample is a point-in-time engine snapshot for time-series plots.
type StateSample struct {
	At     time.Duration
	DBSize int
	PB     int
	FB     int
}

// clientTrack is the per-device untried bookkeeping (§III-A): every SSID
// ever sent to the tracked device, with the bucket it came from. It is
// keyed by the linker-assigned TrackID, not by raw MAC, so a linker that
// re-identifies a rotated MAC resumes the device's rotation mid-list
// instead of restarting from the head.
type clientTrack struct {
	// kinds packs one 4-bit slot per entry id, two to a byte (the even id
	// in the low nibble): the BufferKind (1–5) the entry was first sent
	// from, or 0 if it was never sent. It is grown on demand to the
	// highest id sent to this track, so the untried check and a hit's
	// attribution are one nibble read each.
	kinds []byte
	// sent counts the entries ever sent.
	sent int
}

// kindOf returns the bucket entry id was first sent from, or 0 if it was
// never sent to the track.
func (t *clientTrack) kindOf(id int) BufferKind {
	if b := id >> 1; b < len(t.kinds) {
		return BufferKind(t.kinds[b] >> (id & 1 * 4) & 0xf)
	}
	return 0
}

// has reports whether entry id was ever sent to the track.
func (t *clientTrack) has(id int) bool { return t.kindOf(id) != 0 }

// grow extends the array to cover entry ids up to maxID.
func (t *clientTrack) grow(maxID int) {
	if n := maxID>>1 + 1; n > len(t.kinds) {
		t.kinds = append(t.kinds, make([]byte, n-len(t.kinds))...)
	}
}

// record marks entry id as sent from the given bucket. An entry sent
// before keeps the bucket it was first served from.
func (t *clientTrack) record(id int, kind BufferKind) {
	if t.has(id) {
		return
	}
	t.grow(id)
	t.kinds[id>>1] |= byte(kind) << (id & 1 * 4)
	t.sent++
}

// selection is one reply batch under construction: the entries taken so
// far and the bucket each came from, checked against what the asking
// track was already sent, and where the popularity walk stopped. The
// engine keeps one and reuses its buffers for every reply.
type selection struct {
	track   *clientTrack
	rotate  bool
	budget  int
	entries []*entry
	kinds   []BufferKind
	// chosen[id] == gen marks entry id as already in the batch, so
	// starting a new batch is one increment of gen.
	chosen []uint32
	gen    uint32
	// ghostPop and ghostFresh collect the ghost-list candidates.
	ghostPop, ghostFresh []*entry
	// resume is the popularity-rank position the full-mode backfill
	// starts from: the first entry the popularity walk found eligible
	// but did not take, or the rank's length if it found none. Every
	// entry before it was already sent or is in the batch, so a
	// backfill from the head of the rank would take nothing there.
	resume int
}

// reset starts an empty batch of at most budget entries for track t over
// a database of dbLen entries.
func (s *selection) reset(t *clientTrack, rotate bool, budget, dbLen int) {
	s.track, s.rotate, s.budget, s.resume = t, rotate, budget, 0
	s.entries, s.kinds = s.entries[:0], s.kinds[:0]
	if n := dbLen - len(s.chosen); n > 0 {
		s.chosen = append(s.chosen, make([]uint32, n)...)
	}
	s.gen++
	if s.gen == 0 {
		// The stamp wrapped: stale stamps could collide with it.
		clear(s.chosen)
		s.gen = 1
	}
}

// eligible reports whether en may join the batch: it is not in it yet
// and, under the untried rotation, was never sent to the track.
func (s *selection) eligible(en *entry) bool {
	return s.chosen[en.id] != s.gen && !(s.rotate && s.track.has(en.id))
}

// take adds en to the batch from the given bucket when it is eligible,
// and reports whether the batch is full.
func (s *selection) take(en *entry, kind BufferKind) bool {
	return s.eligible(en) && s.add(en, kind)
}

// add adds en, which must be eligible, to the batch from the given bucket
// and reports whether the batch is full.
func (s *selection) add(en *entry, kind BufferKind) bool {
	s.chosen[en.id] = s.gen
	s.entries = append(s.entries, en)
	s.kinds = append(s.kinds, kind)
	return len(s.entries) >= s.budget
}

// Engine is the City-Hunter strategy. It is not safe for concurrent use;
// the discrete-event engine is single-threaded by design.
type Engine struct {
	cfg Config
	rng *rand.Rand
	db  *database

	// linker maps observed MACs to device tracks; the identity MACLinker
	// (the default) reproduces the historical MAC-keyed behaviour exactly.
	linker  linker.Linker
	clients map[linker.TrackID]*clientTrack
	// fbSize is the adaptive Freshness Buffer size; the Popularity
	// Buffer gets the rest of the regular budget.
	fbSize int

	hits       []HitRecord
	seededSize int
	samples    []StateSample

	// Ghost-hit counters drive the optional proportional adaptation.
	pbGhostHits int
	fbGhostHits int

	// sel is the reply batch under construction, and batch the SSIDs
	// BroadcastReply returns; both are reused across replies to avoid
	// allocation.
	sel   selection
	batch []string

	// om holds the observability handles; nil when uninstrumented, which
	// keeps the BroadcastReply hot path at a single branch.
	om *engineObs
}

// engineObs bundles the engine's metric handles and journal.
type engineObs struct {
	replies     *obs.Counter
	batch       *obs.Histogram
	hits        [6]*obs.Counter // indexed by BufferKind
	harvests    *obs.Counter
	adaptations *obs.Counter
	pbSize      *obs.Gauge
	fbSize      *obs.Gauge
	dbSize      *obs.Gauge
	tracks      *obs.Gauge
	relinks     *obs.Gauge
	journal     *obs.Journal
}

// Instrument attaches the engine to an observability runtime: reply batch
// counters and size histogram (core_broadcast_replies, core_batch_size),
// per-buffer hit attribution (core_hits{kind=...}), harvest and adaptation
// counters, and PB/FB/database size gauges. With a journal present it also
// records ghost-hit and buffer-adaptation events. A nil runtime is a no-op.
//
// The optional labels (key/value pairs) stamp every series the engine
// registers. Partitioned deployments use them to give each site's engine
// its own gauge series — N engines setting one shared unlabeled gauge from
// N goroutines would race — while classic callers pass none and keep their
// historical series names byte for byte.
func (e *Engine) Instrument(rt *obs.Runtime, labels ...string) {
	if rt == nil || (rt.Metrics == nil && rt.Journal == nil) {
		return
	}
	o := &engineObs{journal: rt.Journal}
	if rt.Metrics != nil {
		withKind := func(k BufferKind) []string {
			return append([]string{"kind", k.String()}, labels...)
		}
		o.replies = rt.Metrics.Counter("core_broadcast_replies", labels...)
		o.batch = rt.Metrics.Histogram("core_batch_size", []float64{0, 10, 20, 30, 40}, labels...)
		for _, k := range []BufferKind{KindPopularity, KindPopularityGhost, KindFreshness, KindFreshnessGhost, KindMirror} {
			o.hits[k] = rt.Metrics.Counter("core_hits", withKind(k)...)
		}
		o.harvests = rt.Metrics.Counter("core_harvested_ssids", labels...)
		o.adaptations = rt.Metrics.Counter("core_adaptations", labels...)
		o.pbSize = rt.Metrics.Gauge("core_pb_size", labels...)
		o.fbSize = rt.Metrics.Gauge("core_fb_size", labels...)
		o.dbSize = rt.Metrics.Gauge("core_db_size", labels...)
		o.tracks = rt.Metrics.Gauge("core_tracks", labels...)
		o.relinks = rt.Metrics.Gauge("core_relinks", labels...)
	}
	e.om = o
	e.omSyncGauges()
}

// omSyncGauges refreshes the size gauges after a state change.
func (e *Engine) omSyncGauges() {
	if e.om == nil {
		return
	}
	pb, fb := e.BufferSizes()
	e.om.pbSize.Set(float64(pb))
	e.om.fbSize.Set(float64(fb))
	e.om.dbSize.Set(float64(e.db.len()))
	e.om.tracks.Set(float64(e.linker.Tracks()))
	e.om.relinks.Set(float64(e.linker.Links()))
}

// Name implements attack.Strategy.
func (e *Engine) Name() string {
	if e.cfg.Mode == ModePreliminary {
		return "City-Hunter (preliminary)"
	}
	return "City-Hunter"
}

// DBSize returns the current SSID database size.
func (e *Engine) DBSize() int { return e.db.len() }

// SeededSize returns the database size right after offline initialisation.
func (e *Engine) SeededSize() int { return e.seededSize }

// BufferSizes returns the current regular Popularity and Freshness buffer
// sizes. In preliminary mode the whole budget is popularity.
func (e *Engine) BufferSizes() (pb, fb int) {
	if e.cfg.Mode == ModePreliminary {
		return e.cfg.ReplyBudget, 0
	}
	regular := e.cfg.ReplyBudget - 2*e.cfg.GhostPicks
	return regular - e.fbSize, e.fbSize
}

// Hits returns all capture records in order.
func (e *Engine) Hits() []HitRecord {
	out := make([]HitRecord, len(e.hits))
	copy(out, e.hits)
	return out
}

// SentCount returns how many distinct SSIDs have been sent to the device
// the linker associates with mac.
func (e *Engine) SentCount(mac ieee80211.MAC) int {
	id, ok := e.linker.Lookup(mac)
	if !ok {
		return 0
	}
	if t, ok := e.clients[id]; ok {
		return t.sent
	}
	return 0
}

// SentCountAcross sums the sent counts over every distinct track the
// linker resolved the given MACs to, counting each track once. It is the
// per-device form of SentCount for phones that rotated through several
// MACs: an un-linked rotation splits the device across tracks whose
// counts add up, while a successful re-link collapses them to one track
// counted once. For a single stable MAC it equals SentCount.
func (e *Engine) SentCountAcross(macs []ieee80211.MAC) int {
	total := 0
	var seen []linker.TrackID
	for _, mac := range macs {
		id, ok := e.linker.Lookup(mac)
		if !ok {
			continue
		}
		dup := false
		for _, s := range seen {
			if s == id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen = append(seen, id)
		if t, ok := e.clients[id]; ok {
			total += t.sent
		}
	}
	return total
}

// Linker returns the engine's MAC-to-track linker.
func (e *Engine) Linker() linker.Linker { return e.linker }

// SampleState records a snapshot at the given time for time-series output.
func (e *Engine) SampleState(now time.Duration) {
	pb, fb := e.BufferSizes()
	e.samples = append(e.samples, StateSample{At: now, DBSize: e.db.len(), PB: pb, FB: fb})
}

// Samples returns the recorded snapshots.
func (e *Engine) Samples() []StateSample {
	out := make([]StateSample, len(e.samples))
	copy(out, e.samples)
	return out
}

// EntryInfo is an exported view of one database entry.
type EntryInfo struct {
	SSID   string
	Source Source
	Weight float64
	Hits   int
}

// TopEntries returns the n highest-weight entries.
func (e *Engine) TopEntries(n int) []EntryInfo {
	rank := e.db.popularityRank()
	if n > len(rank) {
		n = len(rank)
	}
	out := make([]EntryInfo, n)
	for i := 0; i < n; i++ {
		en := rank[i]
		out[i] = EntryInfo{SSID: en.ssid, Source: en.source, Weight: en.weight, Hits: en.hits}
	}
	return out
}

// trackOf resolves an observation to its device track via the linker,
// creating the per-track bookkeeping on first sight.
func (e *Engine) trackOf(o linker.Observation) (linker.TrackID, *clientTrack) {
	id := e.linker.Observe(o)
	t, ok := e.clients[id]
	if !ok {
		t = &clientTrack{}
		e.clients[id] = t
	}
	return id, t
}

// Knows implements attack.Knower: whether ssid is already in the database.
func (e *Engine) Knows(ssid string) bool {
	_, ok := e.db.get(ssid)
	return ok
}

// HarvestDirect implements attack.Strategy: online database updating from
// directed probes (step 2 of Fig. 3). New SSIDs enter with HarvestWeight;
// re-sightings bump the weight. The probed SSID is also marked as tried for
// the prober — the base station mirrors it, so a batch slot would be
// wasted on it.
func (e *Engine) HarvestDirect(_ time.Duration, o linker.Observation, ssid string) {
	if ssid == "" {
		return
	}
	en, fresh := e.db.add(ssid, SourceDirectProbe, e.cfg.HarvestWeight)
	if !fresh {
		e.db.bump(en, e.cfg.SightingWeightDelta)
	} else if e.om != nil {
		e.om.harvests.Inc()
		e.om.dbSize.Set(float64(e.db.len()))
	}
	// A harvest is by definition a directed probe; normalise the
	// observation so linkers see the disclosed SSID even when a caller
	// hands in a bare MAC.
	o.Directed, o.SSID = true, ssid
	_, t := e.trackOf(o)
	t.record(en.id, KindMirror)
}

// BroadcastReply implements attack.Strategy: SSID selection (step 3 of
// Fig. 3). In full mode the batch is drawn from the Popularity Buffer, the
// Freshness Buffer and GhostPicks random entries from each ghost list,
// under the per-client untried rotation; any shortfall is backfilled with
// further popularity-ranked entries. The returned slice is the engine's
// own buffer, valid until the next BroadcastReply.
func (e *Engine) BroadcastReply(_ time.Duration, o linker.Observation, limit int) []string {
	budget := e.cfg.ReplyBudget
	if limit < budget {
		budget = limit
	}
	if budget <= 0 {
		return nil
	}
	_, t := e.trackOf(o)
	s := &e.sel
	s.reset(t, e.cfg.RotateUntried, budget, e.db.len())

	if e.cfg.Mode == ModeFull {
		e.selectFull(s)
	}
	// Preliminary mode — and full-mode backfill when the freshness side
	// could not fill its share. The §III design has no weights yet, so
	// it walks the database in storage order; the full design backfills
	// down the popularity ranking from where the popularity walk stopped.
	if len(s.entries) < budget {
		backfill := e.db.unorderedRank()
		if e.cfg.Mode == ModeFull {
			backfill = e.db.popularityRank()[s.resume:]
		}
		for _, en := range backfill {
			if s.take(en, KindPopularity) {
				break
			}
		}
	}

	// Size the track's array once for the whole batch (an empty batch
	// leaves maxID at -1, which grows nothing).
	maxID := -1
	for _, en := range s.entries {
		maxID = max(maxID, en.id)
	}
	t.grow(maxID)
	out := e.batch[:0]
	for i, en := range s.entries {
		t.record(en.id, s.kinds[i])
		out = append(out, en.ssid)
	}
	e.batch = out
	if e.om != nil {
		e.om.replies.Inc()
		e.om.batch.Observe(float64(len(out)))
		e.om.tracks.Set(float64(e.linker.Tracks()))
		e.om.relinks.Set(float64(e.linker.Links()))
	}
	return out
}

// selectFull fills the batch from PB, FB and both ghost lists. Both the
// regular buffers and the ghost candidates honour the per-client untried
// rotation: a client never wastes a slot on an SSID it already received.
// It records in s.resume where the popularity walk stopped.
func (e *Engine) selectFull(s *selection) {
	regular := max(s.budget-2*e.cfg.GhostPicks, 0)
	fb := min(e.fbSize, regular)
	pb := regular - fb

	// Popularity Buffer: the pb highest-weight eligible entries; the next
	// GhostSize eligible entries form its ghost list.
	s.ghostPop = s.ghostPop[:0]
	taken := 0
	rank := e.db.popularityRank()
	s.resume = len(rank)
	for i, en := range rank {
		if !s.eligible(en) {
			continue
		}
		if taken < pb {
			if s.add(en, KindPopularity) {
				return
			}
			taken++
			continue
		}
		if len(s.ghostPop) == 0 {
			s.resume = i
		}
		if len(s.ghostPop) < e.cfg.GhostSize {
			s.ghostPop = append(s.ghostPop, en)
			continue
		}
		break
	}

	// Freshness Buffer: the fb most recently hit eligible entries; the
	// following GhostSize form its ghost list.
	s.ghostFresh = s.ghostFresh[:0]
	taken = 0
	for _, en := range e.db.freshnessRank() {
		if !s.eligible(en) {
			continue
		}
		if taken < fb {
			if s.add(en, KindFreshness) {
				return
			}
			taken++
			continue
		}
		if len(s.ghostFresh) < e.cfg.GhostSize {
			s.ghostFresh = append(s.ghostFresh, en)
			continue
		}
		break
	}

	// Random ghost picks from each list.
	e.pickGhosts(s, s.ghostPop, KindPopularityGhost)
	e.pickGhosts(s, s.ghostFresh, KindFreshnessGhost)
}

// adaptDelta returns the buffer-boundary step for a ghost hit: 1 under the
// paper's rule, or ARC's max(1, opposite/own) under proportional mode.
func (e *Engine) adaptDelta(opposite, own int) int {
	if !e.cfg.ProportionalAdaptation || own <= 0 || opposite <= own {
		return 1
	}
	return opposite / own
}

// pickGhosts takes up to GhostPicks random entries from candidates into s.
func (e *Engine) pickGhosts(s *selection, candidates []*entry, kind BufferKind) {
	picks := min(e.cfg.GhostPicks, len(candidates))
	// Partial Fisher-Yates over the candidate list.
	for i := 0; i < picks; i++ {
		j := i + e.rng.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
		if s.take(candidates[i], kind) {
			return
		}
	}
}

// AbsorbHit merges a capture learnt at ANOTHER deployment site into this
// engine — the periodic-sync knowledge plane. The SSID enters the database
// if it is new (a site can relay SSIDs it harvested over the air) and gets
// the same weight and freshness treatment a local hit would, so a network
// that captured a phone at the canteen rises into this site's Popularity
// and Freshness buffers. Unlike RecordHit it does NOT append to the local
// hit log, touch per-client tracking, or adapt the buffer boundary: the hit
// happened elsewhere, so local attribution and ghost accounting must not
// claim it.
func (e *Engine) AbsorbHit(now time.Duration, ssid string) {
	if ssid == "" {
		return
	}
	en, fresh := e.db.add(ssid, SourceDirectProbe, e.cfg.HarvestWeight)
	if fresh && e.om != nil {
		e.om.dbSize.Set(float64(e.db.len()))
	}
	e.db.recordHit(en, now, e.cfg.HitWeightDelta)
}

// RecordHit implements attack.Strategy: weight and freshness updates plus
// buffer-size adaptation (step 2/3 of Fig. 3). A hit served from PB's ghost
// list means the Popularity Buffer was too small, so it grows at FB's
// expense, and vice versa — the ARC-inspired balancing of §IV-C.
func (e *Engine) RecordHit(now time.Duration, victim linker.Observation, ssid string) {
	en, known := e.db.get(ssid)
	if known {
		e.db.recordHit(en, now, e.cfg.HitWeightDelta)
	}

	// Resolve the victim to its device track. An associating victim has
	// almost always probed first, so Lookup hits; the Observe fallback
	// covers synthetic callers that record hits cold.
	id, linked := e.linker.Lookup(victim.MAC)
	if !linked {
		id = e.linker.Observe(victim)
	}
	kind, source := KindMirror, SourceDirectProbe
	if known {
		source = en.source
		if t, ok := e.clients[id]; ok {
			if k := t.kindOf(en.id); k != 0 {
				kind = k
			}
		}
	}
	e.hits = append(e.hits, HitRecord{MAC: victim.MAC, Track: id, SSID: ssid, At: now, Source: source, Kind: kind})

	if e.om != nil {
		e.om.hits[kind].Inc()
		if e.om.journal != nil && (kind == KindPopularityGhost || kind == KindFreshnessGhost) {
			e.om.journal.Record(now, obs.EventGhostHit, victim.MAC.String(),
				fmt.Sprintf("%s served %q", kind, ssid))
		}
	}
	e.adapt(now, victim.MAC, kind)
}

// adapt moves the buffer boundary after a hit served from the given
// bucket: a ghost hit grows its own side at the other's expense.
func (e *Engine) adapt(now time.Duration, victim ieee80211.MAC, kind BufferKind) {
	if e.cfg.Mode != ModeFull || e.cfg.DisableAdaptation {
		return
	}
	regular := e.cfg.ReplyBudget - 2*e.cfg.GhostPicks
	adapted := 0
	switch kind {
	case KindPopularityGhost:
		// The Popularity Buffer proved too small: grow it at the
		// Freshness Buffer's expense — by one (the paper's rule) or by
		// the ARC-style proportional step.
		e.pbGhostHits++
		delta := e.adaptDelta(e.fbGhostHits, e.pbGhostHits)
		if e.fbSize-delta < e.cfg.MinBuffer {
			delta = e.fbSize - e.cfg.MinBuffer
		}
		e.fbSize -= delta
		adapted = -delta
	case KindFreshnessGhost:
		// And vice versa.
		e.fbGhostHits++
		delta := e.adaptDelta(e.pbGhostHits, e.fbGhostHits)
		if e.fbSize+delta > regular-e.cfg.MinBuffer {
			delta = regular - e.cfg.MinBuffer - e.fbSize
		}
		e.fbSize += delta
		adapted = delta
	}
	if e.om != nil && adapted != 0 {
		e.om.adaptations.Inc()
		e.omSyncGauges()
		if e.om.journal != nil {
			pb, fb := e.BufferSizes()
			e.om.journal.Record(now, obs.EventAdaptation, victim.String(),
				fmt.Sprintf("%s hit moved boundary by %+d: pb=%d fb=%d", kind, adapted, pb, fb))
		}
	}
}
