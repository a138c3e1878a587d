package trace

import (
	"context"
	"testing"
	"time"

	"cityhunter/internal/ieee80211"
)

func entryAt(at time.Duration, subtype ieee80211.FrameSubtype, sa, bssid ieee80211.MAC, ssid string) Entry {
	return Entry{At: at, Subtype: subtype, SA: sa, DA: ieee80211.BroadcastMAC, BSSID: bssid, SSID: ssid}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.Frames != 0 || a.UniqueSources != 0 || a.ProbeIntervalP50 != 0 {
		t.Errorf("empty analysis = %+v", a)
	}
}

func TestAnalyzeCounts(t *testing.T) {
	phone1 := ieee80211.MAC{0x02, 0, 0, 0, 0, 0x01}
	phone2 := ieee80211.MAC{0x02, 0, 0, 0, 0, 0x02}
	twin := ieee80211.MAC{0x0a, 0, 0, 0, 0, 0x01}
	honest := ieee80211.MAC{0x0a, 0, 0, 0, 0, 0x02}
	const (
		probe  = ieee80211.SubtypeProbeRequest
		resp   = ieee80211.SubtypeProbeResponse
		beacon = ieee80211.SubtypeBeacon
		deauth = ieee80211.SubtypeDeauth
	)
	var none ieee80211.MAC
	entries := []Entry{
		entryAt(1*time.Second, probe, phone1, none, ""),
		entryAt(2*time.Second, probe, phone1, none, "HomeNet"),
		entryAt(4*time.Second, probe, phone1, none, ""),
		entryAt(5*time.Second, probe, phone2, none, ""),
		entryAt(5*time.Second, resp, twin, twin, "Lure-1"),
		entryAt(5*time.Second, resp, twin, twin, "Lure-2"),
		entryAt(5*time.Second, resp, twin, twin, "Lure-2"),
		entryAt(6*time.Second, beacon, honest, honest, "Cafe WiFi"),
		entryAt(7*time.Second, deauth, twin, twin, ""),
	}
	a := Analyze(entries)
	if a.Frames != 9 {
		t.Errorf("Frames = %d", a.Frames)
	}
	if a.BySubtype[probe] != 4 || a.BySubtype[deauth] != 1 {
		t.Errorf("BySubtype = %v", a.BySubtype)
	}
	if a.UniqueSources != 4 {
		t.Errorf("UniqueSources = %d", a.UniqueSources)
	}
	if a.Probers != 2 || a.DirectProbers != 1 {
		t.Errorf("probers = %d/%d", a.Probers, a.DirectProbers)
	}
	if a.SSIDsPerResponder[twin] != 2 {
		t.Errorf("twin SSID diversity = %d, want 2", a.SSIDsPerResponder[twin])
	}
	if a.SSIDsPerResponder[honest] != 1 {
		t.Errorf("honest SSID diversity = %d, want 1", a.SSIDsPerResponder[honest])
	}
	// phone1 intervals: 1s and 2s → p50 is the lower one.
	if a.ProbeIntervalP50 != time.Second {
		t.Errorf("P50 = %v", a.ProbeIntervalP50)
	}
	if a.ProbeIntervalP90 != 2*time.Second {
		t.Errorf("P90 = %v", a.ProbeIntervalP90)
	}
}

func TestAnalyzeLiveCapture(t *testing.T) {
	// Wire a monitor into a tiny live exchange and analyse the capture.
	engine, medium, mon := monitorFixture(t)
	tx := &beeper{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 0x09}, pos: mon.Pos()}
	radio := attach(t, medium, tx)
	for i := 0; i < 5; i++ {
		radio.Transmit(probeEntryFrame(tx.addr, ""))
		radio.Transmit(probeEntryFrame(tx.addr, "MyNet"))
	}
	engine.RunContext(context.Background(), time.Minute)
	a := Analyze(mon.Entries())
	if a.Probers != 1 || a.DirectProbers != 1 {
		t.Errorf("probers = %d/%d", a.Probers, a.DirectProbers)
	}
	if a.ProbeIntervalP50 <= 0 {
		t.Error("no probe intervals measured")
	}
}

func TestPercentileBounds(t *testing.T) {
	vals := []time.Duration{1, 2, 3, 4, 5}
	if got := percentile(vals, 0.0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := percentile(vals, 1.0); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}
