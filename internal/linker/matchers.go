package linker

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cityhunter/internal/ieee80211"
)

// Matcher scores how strongly a never-seen MAC's first observation matches
// an existing track. Positive scores are evidence for "same device",
// negative scores against; a large negative score acts as a veto.
type Matcher interface {
	Name() string
	Score(o Observation, t *Track) float64
}

// veto is a score so negative no combination of positive evidence can
// overcome it (fingerprints that definitively differ).
const veto = -1000

// SeqContinuity scores the 12-bit sequence counter: phones keep counting
// across MAC rotations, so the first frame under a fresh MAC carries a
// sequence number just past the last frame of the previous one. A small
// positive modular gap within Horizon is strong evidence of continuity.
type SeqContinuity struct {
	// MaxGap is the largest modular sequence advance still considered
	// continuous (frames lost or sent off-channel widen the gap).
	MaxGap uint16
	// Horizon bounds how stale a track may be before continuity evidence
	// expires; counters of distinct devices alias over long windows.
	Horizon time.Duration
}

// NewSeqContinuity returns the matcher with the calibrated defaults.
func NewSeqContinuity() *SeqContinuity {
	return &SeqContinuity{MaxGap: 64, Horizon: 3 * time.Minute}
}

// Name implements Matcher.
func (s *SeqContinuity) Name() string { return "seq" }

// Score implements Matcher.
func (s *SeqContinuity) Score(o Observation, t *Track) float64 {
	if o.At-t.LastAt > s.Horizon {
		return 0
	}
	delta := (o.Seq - t.LastSeq) & 0x0fff
	if delta == 0 || delta > s.MaxGap {
		return 0
	}
	return 1 - float64(delta-1)/float64(s.MaxGap)
}

// FingerprintMatch scores the condensed IE fingerprint. Matching nonzero
// fingerprints are supporting evidence — deliberately weak, because many
// phones share a chipset personality, so a match alone must never clear a
// composite threshold. Differing nonzero fingerprints are a hard veto —
// two chipset personalities cannot be one device.
type FingerprintMatch struct{}

// Name implements Matcher.
func (FingerprintMatch) Name() string { return "fp" }

// Score implements Matcher.
func (FingerprintMatch) Score(o Observation, t *Track) float64 {
	if o.Fingerprint == 0 || t.Fingerprint == 0 {
		return 0
	}
	if o.Fingerprint == t.Fingerprint {
		return 0.3
	}
	return veto
}

// PNLOrder scores the directed-probe SSID against the track's PNL-order
// signature: clients probe their preferred networks in a stable order, so
// the first directed probe after a rotation names the same head-of-list
// SSID as before. The scores are kept below common composite thresholds —
// crowds share popular head SSIDs, so PNL order corroborates but must not
// link on its own there (a dedicated PNL-only linker uses a lower
// threshold).
type PNLOrder struct{}

// Name implements Matcher.
func (PNLOrder) Name() string { return "pnl" }

// Score implements Matcher.
func (PNLOrder) Score(o Observation, t *Track) float64 {
	if !o.Directed || o.SSID == "" {
		return 0
	}
	if len(t.PNLSig) > 0 && o.SSID == t.PNLSig[0] {
		return 0.4
	}
	if t.knows(o.SSID) {
		return 0.25
	}
	return -0.3
}

// Composite merges an unseen MAC into the best-scoring existing track when
// the summed matcher scores clear Threshold, and opens a new track
// otherwise. Candidate tracks are scored in creation order and ties keep
// the earliest track, so linking is fully deterministic.
type Composite struct {
	matchers  []Matcher
	threshold float64

	tracks []*Track
	byMAC  map[ieee80211.MAC]TrackID
	links  int
}

// NewComposite returns a scoring linker over the given matchers. The
// threshold sets how much combined evidence a merge needs: single-matcher
// linkers pick one their matcher can reach alone, while a multi-signal
// composite sets it above any single weak signal (fingerprint or PNL
// order) so only sequence continuity — or a weak-signal pile-up — links.
func NewComposite(threshold float64, matchers ...Matcher) *Composite {
	return &Composite{
		matchers:  matchers,
		threshold: threshold,
		byMAC:     make(map[ieee80211.MAC]TrackID),
	}
}

// Name implements Linker; it lists the component matchers sorted for a
// stable identifier, e.g. "composite(fp+pnl+seq)".
func (c *Composite) Name() string {
	names := make([]string, len(c.matchers))
	for i, m := range c.matchers {
		names[i] = m.Name()
	}
	sort.Strings(names)
	return fmt.Sprintf("composite(%s)", strings.Join(names, "+"))
}

// Observe implements Linker.
func (c *Composite) Observe(o Observation) TrackID {
	if id, ok := c.byMAC[o.MAC]; ok {
		c.tracks[id-1].observe(o)
		return id
	}
	var best *Track
	bestScore := 0.0
	for _, t := range c.tracks {
		score := 0.0
		for _, m := range c.matchers {
			score += m.Score(o, t)
		}
		if score >= c.threshold && (best == nil || score > bestScore) {
			best, bestScore = t, score
		}
	}
	if best != nil {
		c.links++
		c.byMAC[o.MAC] = best.ID
		best.observe(o)
		return best.ID
	}
	t := &Track{ID: TrackID(len(c.tracks) + 1)}
	t.observe(o)
	c.tracks = append(c.tracks, t)
	c.byMAC[o.MAC] = t.ID
	return t.ID
}

// Lookup implements Linker.
func (c *Composite) Lookup(m ieee80211.MAC) (TrackID, bool) {
	id, ok := c.byMAC[m]
	return id, ok
}

// Tracks implements Linker.
func (c *Composite) Tracks() int { return len(c.tracks) }

// Links implements Linker.
func (c *Composite) Links() int { return c.links }

// Assignments implements Linker.
func (c *Composite) Assignments() map[ieee80211.MAC]TrackID {
	out := make(map[ieee80211.MAC]TrackID, len(c.byMAC))
	for m, id := range c.byMAC {
		out[m] = id
	}
	return out
}
