// Package trace records 802.11 frames crossing the simulated medium — the
// equivalent of the packet captures the paper's field deployment kept for
// analysis.
//
// A Monitor is attached to the medium as a promiscuous station and stores
// one typed record per frame with its virtual timestamp; WritePcap exports
// the capture for Wireshark and Analyze distils it into §III's
// measurements.
package trace

import (
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/obs"
	"cityhunter/internal/sim"
)

// Entry is one recorded frame: its virtual capture time and the five
// fields a pcap record is rebuilt from.
type Entry struct {
	// At is the virtual capture time.
	At      time.Duration
	Subtype ieee80211.FrameSubtype
	SA      ieee80211.MAC
	DA      ieee80211.MAC
	BSSID   ieee80211.MAC
	// SSID is the carried network name, if any.
	SSID string
}

// Monitor is a promiscuous station that records every frame it hears. It
// never transmits.
type Monitor struct {
	addr    ieee80211.MAC
	pos     geo.Point
	clock   interface{ Now() time.Duration }
	entries []Entry
	// MaxEntries bounds memory; 0 means unbounded. When full, new frames
	// are dropped and Dropped counts them.
	MaxEntries int
	Dropped    int
	// OnFirstDrop, when set, is invoked exactly once — at the first frame
	// dropped after the capture reaches MaxEntries — so callers can flag
	// that the capture is truncated rather than complete.
	OnFirstDrop func()
	// DropCounter, when set, counts every dropped frame into the metrics
	// registry, so a live /metrics scrape sees the capture truncating as
	// it happens.
	DropCounter *obs.Counter
}

var _ sim.Station = (*Monitor)(nil)

// NewMonitor builds a monitor at the given position. Attach it to the
// medium to start capturing.
func NewMonitor(engine *sim.Engine, addr ieee80211.MAC, pos geo.Point) *Monitor {
	return &Monitor{addr: addr, pos: pos, clock: engine}
}

// Addr implements sim.Station.
func (m *Monitor) Addr() ieee80211.MAC { return m.addr }

// Pos implements sim.Station.
func (m *Monitor) Pos() geo.Point { return m.pos }

// Receive implements sim.Station: record the frame.
func (m *Monitor) Receive(f *ieee80211.Frame) {
	if m.MaxEntries > 0 && len(m.entries) >= m.MaxEntries {
		m.Dropped++
		m.DropCounter.Inc()
		if m.Dropped == 1 && m.OnFirstDrop != nil {
			m.OnFirstDrop()
		}
		return
	}
	m.entries = append(m.entries, Entry{
		At:      m.clock.Now(),
		Subtype: f.Subtype,
		SA:      f.SA,
		DA:      f.DA,
		BSSID:   f.BSSID,
		SSID:    f.SSID,
	})
}

// Len returns the number of captured frames.
func (m *Monitor) Len() int { return len(m.entries) }

// Entries returns a copy of the capture.
func (m *Monitor) Entries() []Entry {
	out := make([]Entry, len(m.entries))
	copy(out, m.entries)
	return out
}
