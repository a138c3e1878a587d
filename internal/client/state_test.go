package client

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/pnl"
)

func TestSuspendResumeRoundTripLossless(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"Cafe Free WiFi"}
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Cafe Free WiFi", Open: true}}})
	fx.engine.RunContext(context.Background(), 30*time.Second)
	if !c.Stats.Connected {
		t.Fatal("client never connected; snapshot would be trivial")
	}

	snap, err := c.Suspend()
	if err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	if snap.Seq == 0 {
		t.Error("snapshot lost the sequence counter")
	}
	if !snap.Stats.Connected || snap.Stats.Scans == 0 {
		t.Errorf("snapshot stats incomplete: %+v", snap.Stats)
	}
	// The suspended object is dead: no further suspends, no frames.
	if _, err := c.Suspend(); err == nil {
		t.Error("second Suspend succeeded")
	}
	if attached(fx.medium, c) {
		t.Error("suspended client still attached to the medium")
	}

	// An immediate Resume→Suspend round trip preserves the durable state
	// bit-for-bit (the resumed client's first scan is still pending, so
	// nothing has been consumed in between).
	c2, err := Resume(fx.engine, fx.medium, fx.rng, snap)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	snap2, err := c2.Suspend()
	if err != nil {
		t.Fatalf("Suspend after Resume: %v", err)
	}
	snap.Config.PreconnectedBSSID = ieee80211.MAC{} // cleared by design on resume
	if !reflect.DeepEqual(snap, snap2) {
		t.Errorf("round trip lost state:\n first %+v\nsecond %+v", snap, snap2)
	}
}

// TestSuspendResumeCarriesRotationState is the randomization round trip: a
// per-scan rotating phone suspends mid-sequence and resumes with the same
// over-the-air MAC, the same rotation counter, and the full used-MAC
// history — then continues the derived sequence exactly where it stopped
// instead of restarting (a restart would replay MACs and corrupt the
// linker's ground truth).
func TestSuspendResumeCarriesRotationState(t *testing.T) {
	fx := newFixture(t)
	c := fx.newClient(t, Config{
		PNL:           pnl.List{{SSID: "Home"}},
		Randomization: RandomizePerScan,
	})
	fx.engine.RunContext(context.Background(), 30*time.Second)

	snap, err := c.Suspend()
	if err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	if snap.Rotations == 0 {
		t.Fatal("per-scan phone never rotated in 30s of 5s scans")
	}
	if snap.CurrentMAC == snap.Config.MAC {
		t.Error("snapshot's over-the-air MAC is still the identity")
	}
	if snap.CurrentMAC[0] != ieee80211.RandomizedMACPrefix {
		t.Errorf("rotated MAC %v outside the randomized block", snap.CurrentMAC)
	}
	if len(snap.UsedMACs) != int(snap.Rotations)+1 {
		t.Errorf("UsedMACs has %d entries for %d rotations (want identity + one per rotation)",
			len(snap.UsedMACs), snap.Rotations)
	}
	if snap.UsedMACs[0] != snap.Config.MAC {
		t.Errorf("UsedMACs[0] = %v, want the identity %v", snap.UsedMACs[0], snap.Config.MAC)
	}

	// Immediate round trip: durable rotation state is bit-for-bit stable.
	c2, err := Resume(fx.engine, fx.medium, fx.rng, snap)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if c2.Addr() != snap.CurrentMAC {
		t.Errorf("resumed on %v, want the suspended MAC %v", c2.Addr(), snap.CurrentMAC)
	}
	if c2.TrueAddr() != snap.Config.MAC {
		t.Errorf("TrueAddr = %v, want identity %v", c2.TrueAddr(), snap.Config.MAC)
	}
	snap2, err := c2.Suspend()
	if err != nil {
		t.Fatalf("Suspend after Resume: %v", err)
	}
	snap.Config.PreconnectedBSSID = ieee80211.MAC{} // cleared by design on resume
	if !reflect.DeepEqual(snap, snap2) {
		t.Errorf("round trip lost rotation state:\n first %+v\nsecond %+v", snap, snap2)
	}

	// A resumed phone continues the derived sequence: its next rotation is
	// rotation number snap.Rotations, not a replay of an earlier MAC.
	c3, err := Resume(fx.engine, fx.medium, fx.rng, snap2)
	if err != nil {
		t.Fatalf("second Resume: %v", err)
	}
	fx.engine.RunContext(context.Background(), 60*time.Second)
	want := ieee80211.DerivedRandomMAC(snap.Config.MAC, snap.Rotations)
	found := false
	for _, m := range c3.UsedMACs() {
		if m == want {
			found = true
		}
	}
	if !found {
		t.Errorf("resumed phone never rotated to %v (rotation %d); used %v",
			want, snap.Rotations, c3.UsedMACs())
	}
	seen := make(map[ieee80211.MAC]bool)
	for _, m := range c3.UsedMACs() {
		if seen[m] {
			t.Errorf("MAC %v replayed after resume", m)
		}
		seen[m] = true
	}
}

func TestResumedClientContinuesAtNewSite(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"Cafe Free WiFi"}
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Cafe Free WiFi", Open: true}}})
	fx.engine.RunContext(context.Background(), 30*time.Second)
	snap, err := c.Suspend()
	if err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	scans, seq := snap.Stats.Scans, snap.Seq

	// Resume at a second site after a gap: scanning restarts, the sequence
	// counter continues rather than restarting, and the phone can connect
	// again.
	fx.engine.RunContext(context.Background(), 10*time.Minute)
	c2, err := Resume(fx.engine, fx.medium, fx.rng, snap)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	c2.SetPos(geo.Pt(10, 0))
	fx.engine.RunContext(context.Background(), 11*time.Minute)
	if c2.Stats.Scans <= scans {
		t.Errorf("resumed client never scanned: %d then %d", scans, c2.Stats.Scans)
	}
	if c2.seq <= seq {
		t.Errorf("sequence counter restarted: %d then %d", seq, c2.seq)
	}
	if !c2.Stats.Connected {
		t.Error("resumed client failed to reconnect at the new site")
	}
}

func TestResumeIgnoresStaleAssociation(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"Cafe Free WiFi"}
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Cafe Free WiFi", Open: true}}})
	fx.engine.RunContext(context.Background(), 30*time.Second)
	if c.State() != StateConnected {
		t.Fatalf("client in state %v, want connected", c.State())
	}
	snap, err := c.Suspend()
	if err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	c2, err := Resume(fx.engine, fx.medium, fx.rng, snap)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	// The old association is gone: the phone resumes scanning, not connected
	// to a peer that is out of range by construction.
	if c2.State() != StateScanning {
		t.Errorf("resumed client in state %v, want scanning", c2.State())
	}
}

func TestSuspendBeforeStartFails(t *testing.T) {
	fx := newFixture(t)
	c, err := New(fx.engine, fx.medium, fx.rng, Config{
		MAC: ieee80211.RandomMAC(fx.rng), ScanInterval: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Suspend(); err == nil {
		t.Error("Suspend before Start succeeded")
	}
}

func TestResumePreservesHostileSet(t *testing.T) {
	fx := newFixture(t)
	evil := ieee80211.MAC{0x0e, 1, 2, 3, 4, 5}
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Home"}}})
	c.hostile = map[ieee80211.MAC]bool{evil: true}
	snap, err := c.Suspend()
	if err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	c2, err := Resume(fx.engine, fx.medium, rand.New(rand.NewSource(9)), snap)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !c2.hostile[evil] {
		t.Error("resumed client forgot an unmasked evil twin")
	}
}
