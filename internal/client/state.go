package client

import (
	"fmt"
	"math/rand"
	"time"

	"cityhunter/internal/ieee80211"
	"cityhunter/internal/sim"
)

// Snapshot is the durable state of a phone between level-of-detail
// promotions: everything that must survive a demote/promote round trip.
// Transient radio state — the open scan window, a mid-flight handshake, a
// held association — is deliberately absent: demotion happens when the
// phone leaves every station's radio range, where a real phone's scan
// yields nothing and its association times out. What a phone carries across
// the city is its identity (MAC, PNL, behaviour flags), its accumulated
// Stats, its frame sequence counter, and the evil twins its canary probes
// unmasked.
type Snapshot struct {
	// Config is the phone's full configuration, including the current
	// (possibly rotated) MAC and the PNL.
	Config Config
	// Stats is the accumulated per-client accounting.
	Stats Stats
	// Seq is the 802.11 sequence counter, so frame numbering continues
	// instead of restarting (a restart would be a visible artefact in
	// captures and in sequence-continuity de-anonymisation scenarios).
	Seq uint16
	// Hostile carries the canary detector's unmasked evil twins; the phone
	// keeps ignoring them at the next site.
	Hostile map[ieee80211.MAC]bool
	// CurrentMAC is the over-the-air MAC at suspension time.
	CurrentMAC ieee80211.MAC
	// Rotations is the rotation counter: the resumed phone's next rotation
	// continues the derived sequence exactly where it stopped.
	Rotations uint32
	// NextRotateAt is the RandomizeTimed deadline, in simulation time.
	NextRotateAt time.Duration
	// UsedMACs is every MAC the phone has appeared under, for ground-truth
	// accounting across demote/promote round trips. A started phone has
	// used at least one.
	UsedMACs []ieee80211.MAC
}

// Suspend detaches the phone from the medium and returns the snapshot a
// later Resume restores. All pending events become no-ops, exactly as in
// Depart; the client itself is dead afterwards (state Departed) — the
// snapshot, not the object, is what lives on. Suspending an idle or
// already-departed phone is an error.
func (c *Client) Suspend() (Snapshot, error) {
	switch c.state {
	case StateIdle:
		return Snapshot{}, fmt.Errorf("client %v: Suspend before Start", c.Addr())
	case StateDeparted:
		return Snapshot{}, fmt.Errorf("client %v: Suspend after Depart", c.Addr())
	}
	snap := Snapshot{
		Config:       c.cfg,
		Stats:        c.Stats,
		Seq:          c.seq,
		Hostile:      c.hostile,
		CurrentMAC:   c.mac,
		Rotations:    c.rotations,
		NextRotateAt: c.nextRotateAt,
		UsedMACs:     append([]ieee80211.MAC(nil), c.usedMACs...),
	}
	c.state = StateDeparted
	c.scanEpoch++
	c.hsEpoch++
	c.radio.Detach()
	return snap, nil
}

// Resume rebuilds a phone from a Suspend snapshot and attaches it to the
// medium: identity, stats, sequence counter and hostile set continue where
// they left off, and the phone starts scanning after a uniform random
// fraction of its scan interval (drawn from rng — hand each pedestrian its
// own stream and resumes are independent of promotion order). A phone that
// was associated when suspended resumes scanning: its peer is out of range
// by construction. PreconnectedBSSID is ignored on resume for the same
// reason.
func Resume(engine *sim.Engine, medium *sim.Medium, rng *rand.Rand, snap Snapshot) (*Client, error) {
	cfg := snap.Config
	cfg.PreconnectedBSSID = ieee80211.MAC{}
	c, err := New(engine, medium, rng, cfg)
	if err != nil {
		return nil, err
	}
	c.Stats = snap.Stats
	c.seq = snap.Seq
	c.hostile = snap.Hostile
	c.mac = snap.CurrentMAC
	c.rotations = snap.Rotations
	c.nextRotateAt = snap.NextRotateAt
	c.usedMACs = append([]ieee80211.MAC(nil), snap.UsedMACs...)
	if c.radio, err = c.medium.Attach(c); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if c.cfg.Obs != nil && c.cfg.Obs.Trace != nil {
		c.trace = c.cfg.Obs.Trace
		c.tid = c.trace.Track("client " + c.cfg.MAC.String())
	}
	c.state = StateScanning
	first := time.Duration(rng.Int63n(int64(c.cfg.ScanInterval)))
	c.scheduleScan(first)
	return c, nil
}
