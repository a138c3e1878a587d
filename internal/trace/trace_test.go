package trace

import (
	"context"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/sim"
)

func monitorFixture(t *testing.T) (*sim.Engine, *sim.Medium, *Monitor) {
	t.Helper()
	engine := sim.NewEngine()
	medium := sim.NewMedium(engine, 100)
	mon := NewMonitor(engine, ieee80211.MAC{0x0a, 0, 0, 0, 0, 0xfe}, geo.Pt(0, 0))
	if _, err := medium.AttachPromiscuous(mon); err != nil {
		t.Fatal(err)
	}
	return engine, medium, mon
}

// attach attaches s to medium and returns its radio.
func attach(t *testing.T, medium *sim.Medium, s sim.Station) *sim.Radio {
	t.Helper()
	radio, err := medium.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	return radio
}

type beeper struct {
	addr ieee80211.MAC
	pos  geo.Point
}

func (b *beeper) Addr() ieee80211.MAC      { return b.addr }
func (b *beeper) Pos() geo.Point           { return b.pos }
func (b *beeper) Receive(*ieee80211.Frame) {}

func TestMonitorCaptures(t *testing.T) {
	engine, medium, mon := monitorFixture(t)
	tx := &beeper{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 1}, pos: geo.Pt(10, 0)}
	radio := attach(t, medium, tx)
	radio.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC, SA: tx.addr, BSSID: ieee80211.BroadcastMAC,
		SSID: "CafeNet",
	})
	radio.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC, SA: tx.addr, BSSID: ieee80211.BroadcastMAC,
	})
	engine.RunContext(context.Background(), time.Second)

	if mon.Len() != 2 {
		t.Fatalf("captured %d frames, want 2", mon.Len())
	}
	entries := mon.Entries()
	want := Entry{At: entries[0].At, Subtype: ieee80211.SubtypeProbeRequest,
		SA: tx.addr, DA: ieee80211.BroadcastMAC, BSSID: ieee80211.BroadcastMAC, SSID: "CafeNet"}
	if entries[0] != want {
		t.Errorf("entry 0 = %+v, want %+v", entries[0], want)
	}
	if entries[0].At <= 0 || entries[1].At <= entries[0].At {
		t.Errorf("timestamps not increasing: %v %v", entries[0].At, entries[1].At)
	}
}

func TestMonitorBounded(t *testing.T) {
	engine, medium, mon := monitorFixture(t)
	mon.MaxEntries = 3
	tx := &beeper{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 1}, pos: geo.Pt(10, 0)}
	radio := attach(t, medium, tx)
	for i := 0; i < 10; i++ {
		radio.Transmit(&ieee80211.Frame{
			Subtype: ieee80211.SubtypeProbeRequest,
			DA:      ieee80211.BroadcastMAC, SA: tx.addr,
		})
	}
	engine.RunContext(context.Background(), time.Second)
	if mon.Len() != 3 {
		t.Errorf("Len = %d, want 3", mon.Len())
	}
	if mon.Dropped != 7 {
		t.Errorf("Dropped = %d, want 7", mon.Dropped)
	}
}

func TestMonitorOnFirstDrop(t *testing.T) {
	engine, medium, mon := monitorFixture(t)
	mon.MaxEntries = 2
	fired := 0
	var firedAtDropped int
	mon.OnFirstDrop = func() {
		fired++
		firedAtDropped = mon.Dropped
	}
	tx := &beeper{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 1}, pos: geo.Pt(10, 0)}
	radio := attach(t, medium, tx)
	for i := 0; i < 8; i++ {
		radio.Transmit(&ieee80211.Frame{
			Subtype: ieee80211.SubtypeProbeRequest,
			DA:      ieee80211.BroadcastMAC, SA: tx.addr,
		})
	}
	engine.RunContext(context.Background(), time.Second)
	if fired != 1 {
		t.Errorf("OnFirstDrop fired %d times, want exactly once", fired)
	}
	if firedAtDropped != 1 {
		t.Errorf("OnFirstDrop saw Dropped = %d, want 1", firedAtDropped)
	}
	if mon.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", mon.Dropped)
	}
}

func TestEntriesReturnsCopy(t *testing.T) {
	engine, medium, mon := monitorFixture(t)
	tx := &beeper{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 1}, pos: geo.Pt(10, 0)}
	radio := attach(t, medium, tx)
	radio.Transmit(&ieee80211.Frame{Subtype: ieee80211.SubtypeProbeRequest, DA: ieee80211.BroadcastMAC, SA: tx.addr})
	engine.RunContext(context.Background(), time.Second)
	got := mon.Entries()
	got[0].SSID = "mutated"
	if mon.Entries()[0].SSID == "mutated" {
		t.Error("Entries exposes internal slice")
	}
}

// probeEntryFrame is a helper shared with the analysis tests.
func probeEntryFrame(sa ieee80211.MAC, ssid string) *ieee80211.Frame {
	return &ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC,
		SA:      sa,
		BSSID:   ieee80211.BroadcastMAC,
		SSID:    ssid,
	}
}
