// Package detect implements the evil-twin countermeasures the paper's
// conclusion points to ("existing techniques to detect evil twin APs ...
// can still work as effective countermeasures for the City-Hunter"):
//
//   - A passive Sentinel station that watches probe responses and beacons
//     and flags any BSSID advertising implausibly many distinct SSIDs —
//     the tell-tale of a KARMA-family attacker, which serves every lure
//     from one radio.
//   - Client-side canary probing (implemented in internal/client, driven
//     by client.Config.CanaryProbing): a client directs a probe at a
//     nonexistent random SSID each scan; any responder that mimics the
//     canary is hostile and gets ignored.
//
// Both are deployable inside the simulation to measure how quickly the
// attack is spotted and how much of the hunting rate survives a cautious
// population.
package detect

import (
	"fmt"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/sim"
)

// DefaultSSIDThreshold is how many distinct SSIDs one BSSID may advertise
// before the sentinel flags it. Legitimate APs advertise one or two
// (dual-SSID); an evil twin answering broadcast probes advertises dozens
// within a single scan window.
const DefaultSSIDThreshold = 5

// Finding is one flagged BSSID.
type Finding struct {
	// BSSID is the suspected evil twin.
	BSSID ieee80211.MAC
	// FlaggedAt is when the threshold was crossed.
	FlaggedAt time.Duration
	// SSIDCount is the distinct SSIDs observed by then.
	SSIDCount int
}

// Sentinel is a passive monitor station implementing the
// many-SSIDs-one-BSSID detector.
type Sentinel struct {
	addr      ieee80211.MAC
	pos       geo.Point
	clock     interface{ Now() time.Duration }
	threshold int

	ssids    map[ieee80211.MAC]map[string]bool
	flagged  map[ieee80211.MAC]bool
	findings []Finding

	// FramesSeen counts the management frames inspected.
	FramesSeen int
}

var _ sim.Station = (*Sentinel)(nil)

// NewSentinel builds a sentinel at the given position. threshold ≤ 0
// selects DefaultSSIDThreshold. Attach it to the medium to start watching.
func NewSentinel(engine *sim.Engine, addr ieee80211.MAC, pos geo.Point, threshold int) *Sentinel {
	if threshold <= 0 {
		threshold = DefaultSSIDThreshold
	}
	return &Sentinel{
		addr:      addr,
		pos:       pos,
		clock:     engine,
		threshold: threshold,
		ssids:     make(map[ieee80211.MAC]map[string]bool),
		flagged:   make(map[ieee80211.MAC]bool),
	}
}

// Addr implements sim.Station.
func (s *Sentinel) Addr() ieee80211.MAC { return s.addr }

// Pos implements sim.Station.
func (s *Sentinel) Pos() geo.Point { return s.pos }

// Receive implements sim.Station: track SSID diversity per BSSID.
func (s *Sentinel) Receive(f *ieee80211.Frame) {
	if f.Subtype != ieee80211.SubtypeProbeResponse && f.Subtype != ieee80211.SubtypeBeacon {
		return
	}
	s.FramesSeen++
	if f.SSID == "" {
		return
	}
	set, ok := s.ssids[f.BSSID]
	if !ok {
		set = make(map[string]bool)
		s.ssids[f.BSSID] = set
	}
	if set[f.SSID] {
		return
	}
	set[f.SSID] = true
	if !s.flagged[f.BSSID] && len(set) >= s.threshold {
		s.flagged[f.BSSID] = true
		s.findings = append(s.findings, Finding{
			BSSID:     f.BSSID,
			FlaggedAt: s.clock.Now(),
			SSIDCount: len(set),
		})
	}
}

// Findings returns all flagged BSSIDs in detection order.
func (s *Sentinel) Findings() []Finding {
	out := make([]Finding, len(s.findings))
	copy(out, s.findings)
	return out
}

// SSIDCount returns the distinct SSIDs observed from a BSSID so far.
func (s *Sentinel) SSIDCount(bssid ieee80211.MAC) int { return len(s.ssids[bssid]) }

// String summarises the sentinel state.
func (s *Sentinel) String() string {
	return fmt.Sprintf("sentinel: %d BSSIDs observed, %d flagged (threshold %d)",
		len(s.ssids), len(s.findings), s.threshold)
}
