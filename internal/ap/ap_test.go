package ap

import (
	"context"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/obs"
	"cityhunter/internal/sim"
)

type sniffer struct {
	addr    ieee80211.MAC
	pos     geo.Point
	beacons int
	other   int
	radio   *sim.Radio
}

func (s *sniffer) Addr() ieee80211.MAC { return s.addr }
func (s *sniffer) Pos() geo.Point      { return s.pos }
func (s *sniffer) Receive(f *ieee80211.Frame) {
	if f.Subtype == ieee80211.SubtypeBeacon {
		s.beacons++
	} else {
		s.other++
	}
}

func fixture(t *testing.T) (*sim.Engine, *sim.Medium, *sniffer) {
	t.Helper()
	engine := sim.NewEngine()
	medium := sim.NewMedium(engine, 100)
	sn := &sniffer{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 9}, pos: geo.Pt(5, 0)}
	var err error
	if sn.radio, err = medium.Attach(sn); err != nil {
		t.Fatal(err)
	}
	return engine, medium, sn
}

func TestNewValidation(t *testing.T) {
	engine, medium, _ := fixture(t)
	if _, err := New(engine, medium, Config{}); err == nil {
		t.Error("zero MAC accepted")
	}
}

func TestBeaconing(t *testing.T) {
	engine, medium, sn := fixture(t)
	a, err := New(engine, medium, Config{
		MAC:  ieee80211.MAC{0x0a, 1, 1, 1, 1, 1},
		SSID: "Venue WiFi",
		Pos:  geo.Pt(0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	engine.RunContext(context.Background(), time.Second)
	// Standard interval ≈102.4 ms ⇒ ~9-10 beacons per second.
	if sn.beacons < 8 || sn.beacons > 11 {
		t.Errorf("beacons = %d, want ≈9-10/s", sn.beacons)
	}
	if sn.other != 0 {
		t.Errorf("AP sent %d non-beacon frames", sn.other)
	}
	if a.BeaconsSent != sn.beacons {
		t.Errorf("BeaconsSent = %d, sniffer heard %d", a.BeaconsSent, sn.beacons)
	}
}

func TestCustomInterval(t *testing.T) {
	engine, medium, sn := fixture(t)
	a, err := New(engine, medium, Config{
		MAC:            ieee80211.MAC{0x0a, 1, 1, 1, 1, 1},
		SSID:           "X",
		BeaconInterval: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	// Beacons go out at 250/500/750/1000 ms; run a hair past the last
	// one so its airtime completes and it is delivered.
	engine.RunContext(context.Background(), 1100*time.Millisecond)
	if sn.beacons != 4 {
		t.Errorf("beacons = %d, want 4 at 250ms", sn.beacons)
	}
}

func TestAPIgnoresTraffic(t *testing.T) {
	engine, medium, sn := fixture(t)
	reg := obs.NewRegistry()
	medium.Instrument(&obs.Runtime{Metrics: reg})
	a, err := New(engine, medium, Config{
		MAC: ieee80211.MAC{0x0a, 1, 1, 1, 1, 1}, SSID: "X",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	// A probe request to the AP draws no response.
	sn.radio.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC,
		SA:      sn.addr,
	})
	engine.RunContext(context.Background(), 50*time.Millisecond)
	// Only the probe and beacons may have been sent.
	snap := reg.Snapshot()
	if n := snap.Value("medium_frames_sent", "subtype", ieee80211.SubtypeProbeRequest.String()); n != 1 {
		t.Errorf("%v probe requests counted, want 1", n)
	}
	for _, sub := range []ieee80211.FrameSubtype{ieee80211.SubtypeProbeResponse, ieee80211.SubtypeAuth, ieee80211.SubtypeAssocResponse} {
		if n := snap.Value("medium_frames_sent", "subtype", sub.String()); n != 0 {
			t.Errorf("unexpected AP transmissions: %v %s frames", n, sub)
		}
	}
}
