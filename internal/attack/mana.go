package attack

import (
	"time"

	"cityhunter/internal/linker"
)

// Mana is the MANA attack strategy (White & de Villiers, DEF CON 22): every
// SSID harvested from directed probes goes into a database, and each
// broadcast probe is answered with the database contents. As the paper's
// Section III analysis shows, two flaws cap its broadcast hit rate at a few
// percent:
//
//   - the reply is truncated to the client's ~40-response scan budget and
//     always starts from the front of the database, so entries beyond the
//     first 40 are effectively never tried (Fig. 1); and
//   - the database quality is whatever direct probers happen to disclose —
//     mostly unique, secured home networks.
type Mana struct {
	// Loud reproduces hostapd-mana's loud mode: directed probes are also
	// answered with the database head, not just the mirrored SSID.
	Loud bool

	order []string
	seen  map[string]bool

	// sizeSamples records (time, database size) pairs for Fig. 1a when
	// sampling is enabled via SampleSize.
	sizeSamples []SizeSample
}

// SizeSample is one (time, database size) observation.
type SizeSample struct {
	At   time.Duration
	Size int
}

var _ Strategy = (*Mana)(nil)

// NewMana returns an empty MANA strategy.
func NewMana() *Mana {
	return &Mana{seen: make(map[string]bool)}
}

// Name implements Strategy.
func (*Mana) Name() string { return "MANA" }

// HarvestDirect implements Strategy: store each new disclosed SSID.
func (m *Mana) HarvestDirect(_ time.Duration, _ linker.Observation, ssid string) {
	if ssid == "" || m.seen[ssid] {
		return
	}
	m.seen[ssid] = true
	m.order = append(m.order, ssid)
}

// BroadcastReply implements Strategy: the whole database, truncated to the
// client's response budget — MANA's characteristic flaw.
func (m *Mana) BroadcastReply(_ time.Duration, _ linker.Observation, limit int) []string {
	if len(m.order) <= limit {
		return m.order
	}
	return m.order[:limit]
}

// DirectReply implements DirectReplier when Loud is set: the database head
// (minus the probed SSID, which the base station already mirrors).
func (m *Mana) DirectReply(_ time.Duration, _ linker.Observation, probed string, limit int) []string {
	if !m.Loud {
		return nil
	}
	out := make([]string, 0, limit)
	for _, ssid := range m.order {
		if len(out) >= limit {
			break
		}
		if ssid != probed {
			out = append(out, ssid)
		}
	}
	return out
}

// RecordHit implements Strategy. MANA keeps no hit statistics.
func (*Mana) RecordHit(time.Duration, linker.Observation, string) {}

// Knows implements Knower.
func (m *Mana) Knows(ssid string) bool { return m.seen[ssid] }

// SampleSize records the current database size at the given time; the
// Figure 1a experiment calls this every sampling tick.
func (m *Mana) SampleSize(now time.Duration) {
	m.sizeSamples = append(m.sizeSamples, SizeSample{At: now, Size: len(m.order)})
}

// SizeSamples returns the recorded (time, size) series.
func (m *Mana) SizeSamples() []SizeSample {
	out := make([]SizeSample, len(m.sizeSamples))
	copy(out, m.sizeSamples)
	return out
}
