// Package ap provides a minimal legitimate access point for the §V-B
// deauthentication scenario: it beacons periodically (so the attacker can
// learn its BSSID) and serves as the association anchor for phones that
// arrive already connected to public Wi-Fi.
//
// Simplification, documented per DESIGN.md: the AP does not answer probe
// requests or run handshakes — its SSID is chosen outside the phones'
// PNL universe, so it never competes with the attacker for new clients.
// What the experiment needs from it is exactly what it provides: a real
// BSSID on the air that the attacker can spoof deauthentications from.
package ap

import (
	"fmt"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/sim"
)

// Config describes a legitimate AP.
type Config struct {
	// MAC is the AP's BSSID.
	MAC ieee80211.MAC
	// SSID is the advertised network name.
	SSID string
	// Pos is the AP position.
	Pos geo.Point
	// Channel for the DS parameter element.
	Channel uint8
	// BeaconInterval defaults to the standard ~102.4 ms.
	BeaconInterval time.Duration
}

// AP is a beaconing legitimate access point.
type AP struct {
	cfg    Config
	engine *sim.Engine
	medium *sim.Medium
	radio  *sim.Radio
	seq    uint16

	// BeaconsSent counts transmitted beacons.
	BeaconsSent int
}

// New builds an AP; Start attaches it and begins beaconing.
func New(engine *sim.Engine, medium *sim.Medium, cfg Config) (*AP, error) {
	if cfg.MAC == (ieee80211.MAC{}) {
		return nil, fmt.Errorf("ap: zero MAC")
	}
	if cfg.BeaconInterval <= 0 {
		cfg.BeaconInterval = 102400 * time.Microsecond
	}
	return &AP{cfg: cfg, engine: engine, medium: medium}, nil
}

// Addr implements sim.Station.
func (a *AP) Addr() ieee80211.MAC { return a.cfg.MAC }

// Pos implements sim.Station.
func (a *AP) Pos() geo.Point { return a.cfg.Pos }

// CurrentChannel implements sim.ChannelTuner.
func (a *AP) CurrentChannel() uint8 { return a.cfg.Channel }

// Receive implements sim.Station. The AP ignores traffic (see the package
// comment for why).
func (a *AP) Receive(*ieee80211.Frame) {}

// Start attaches the AP and begins the beacon loop.
func (a *AP) Start() error {
	var err error
	if a.radio, err = a.medium.Attach(a); err != nil {
		return fmt.Errorf("ap: %w", err)
	}
	a.scheduleBeacon()
	return nil
}

func (a *AP) scheduleBeacon() {
	a.engine.Schedule(a.cfg.BeaconInterval, func() {
		a.seq = (a.seq + 1) & 0x0fff
		a.radio.Transmit(&ieee80211.Frame{
			Subtype:          ieee80211.SubtypeBeacon,
			DA:               ieee80211.BroadcastMAC,
			SA:               a.cfg.MAC,
			BSSID:            a.cfg.MAC,
			Seq:              a.seq,
			SSID:             a.cfg.SSID,
			Capability:       ieee80211.CapESS,
			Channel:          a.cfg.Channel,
			BeaconIntervalTU: 100,
		})
		a.BeaconsSent++
		a.scheduleBeacon()
	})
}
