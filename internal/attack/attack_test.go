package attack

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cityhunter/internal/ap"
	"cityhunter/internal/client"
	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/linker"
	"cityhunter/internal/obs"
	"cityhunter/internal/pnl"
	"cityhunter/internal/sim"
)

var attackerMAC = ieee80211.MAC{0x0a, 0xbc, 0, 0, 0, 1}

// lnk wraps a bare MAC into the minimal linker.Observation the strategy
// interface consumes.
func lnk(m ieee80211.MAC) linker.Observation { return linker.Observation{MAC: m} }

type fixture struct {
	engine *sim.Engine
	medium *sim.Medium
	rng    *rand.Rand
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	e := sim.NewEngine()
	return &fixture{engine: e, medium: sim.NewMedium(e, 50), rng: rand.New(rand.NewSource(1))}
}

func (fx *fixture) newAttacker(t *testing.T, s Strategy, cfg Config) *Attacker {
	t.Helper()
	if cfg.MAC == (ieee80211.MAC{}) {
		cfg.MAC = attackerMAC
	}
	cfg.RespondToDirect = true
	a, err := New(fx.engine, fx.medium, s, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return a
}

func (fx *fixture) newClient(t *testing.T, cfg client.Config) *client.Client {
	t.Helper()
	if cfg.MAC == (ieee80211.MAC{}) {
		cfg.MAC = ieee80211.RandomMAC(fx.rng)
	}
	if cfg.ScanInterval == 0 {
		cfg.ScanInterval = 5 * time.Second
	}
	c, err := client.New(fx.engine, fx.medium, fx.rng, cfg)
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	c.SetPos(geo.Pt(5, 0))
	if err := c.Start(); err != nil {
		t.Fatalf("client.Start: %v", err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	fx := newFixture(t)
	if _, err := New(fx.engine, fx.medium, nil, Config{MAC: attackerMAC}); err == nil {
		t.Error("nil strategy accepted")
	}
	if _, err := New(fx.engine, fx.medium, NewKarma(), Config{}); err == nil {
		t.Error("zero MAC accepted")
	}
}

func TestKarmaCapturesDirectProber(t *testing.T) {
	fx := newFixture(t)
	a := fx.newAttacker(t, NewKarma(), Config{})
	c := fx.newClient(t, client.Config{
		PNL:          pnl.List{{SSID: "Open Cafe", Open: true}, {SSID: "Home"}},
		DirectProber: true,
	})
	fx.engine.RunContext(context.Background(), 30*time.Second)
	if !c.Stats.Connected {
		t.Fatal("KARMA did not capture direct prober with open PNL entry")
	}
	victims := a.Victims()
	if len(victims) != 1 {
		t.Fatalf("victims = %d", len(victims))
	}
	if victims[0].SSID != "Open Cafe" || !victims[0].DirectProber {
		t.Errorf("victim = %+v", victims[0])
	}
}

func TestKarmaCannotCaptureBroadcastProber(t *testing.T) {
	fx := newFixture(t)
	a := fx.newAttacker(t, NewKarma(), Config{})
	c := fx.newClient(t, client.Config{
		PNL: pnl.List{{SSID: "Open Cafe", Open: true}},
	})
	fx.engine.RunContext(context.Background(), 2*time.Minute)
	if c.Stats.Connected {
		t.Error("KARMA captured a broadcast-only prober")
	}
	r := a.Report()
	if r.ConnectedBroadcast != 0 {
		t.Errorf("ConnectedBroadcast = %d, want 0 for KARMA (paper Table I)", r.ConnectedBroadcast)
	}
	if r.BroadcastClients != 1 {
		t.Errorf("BroadcastClients = %d", r.BroadcastClients)
	}
}

func TestKarmaSecuredEntryNoCapture(t *testing.T) {
	fx := newFixture(t)
	fx.newAttacker(t, NewKarma(), Config{})
	c := fx.newClient(t, client.Config{
		PNL:          pnl.List{{SSID: "Home"}}, // secured
		DirectProber: true,
	})
	fx.engine.RunContext(context.Background(), time.Minute)
	if c.Stats.Connected {
		t.Error("KARMA captured client whose only entry is secured")
	}
}

func TestManaHarvestsAndReplays(t *testing.T) {
	fx := newFixture(t)
	mana := NewMana()
	fx.newAttacker(t, mana, Config{})

	// A direct prober discloses a popular open SSID...
	fx.newClient(t, client.Config{
		PNL:          pnl.List{{SSID: "Popular Free WiFi", Open: true}},
		DirectProber: true,
		ScanInterval: 2 * time.Second,
	})
	fx.engine.RunContext(context.Background(), 10*time.Second)
	if len(mana.order) != 1 {
		t.Fatalf("DB size = %d after harvest", len(mana.order))
	}

	// ...then a broadcast-only phone with the same SSID appears and is hit.
	victim := fx.newClient(t, client.Config{
		PNL: pnl.List{{SSID: "Popular Free WiFi", Open: true}},
	})
	fx.engine.RunContext(context.Background(), fx.engine.Now()+time.Minute)
	if !victim.Stats.Connected {
		t.Fatal("MANA failed to hit broadcast prober with harvested SSID")
	}
	if victim.Stats.ConnectedVia != "Popular Free WiFi" {
		t.Errorf("via %q", victim.Stats.ConnectedVia)
	}
}

func TestManaHarvestDeduplicates(t *testing.T) {
	m := NewMana()
	for i := 0; i < 5; i++ {
		m.HarvestDirect(0, lnk(ieee80211.MAC{1}), "Same")
	}
	m.HarvestDirect(0, lnk(ieee80211.MAC{1}), "")
	if len(m.order) != 1 {
		t.Errorf("DB size = %d, want 1", len(m.order))
	}
}

func TestManaReplyTruncation(t *testing.T) {
	m := NewMana()
	for i := 0; i < 100; i++ {
		m.HarvestDirect(0, lnk(ieee80211.MAC{1}), string(rune('a'+i%26))+string(rune('0'+i/26)))
	}
	got := m.BroadcastReply(0, lnk(ieee80211.MAC{2}), 40)
	if len(got) != 40 {
		t.Fatalf("reply = %d SSIDs, want 40", len(got))
	}
	// MANA's flaw: the same first 40 every time.
	again := m.BroadcastReply(0, lnk(ieee80211.MAC{3}), 40)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("MANA reply varied between clients; it should always send the database head")
		}
	}
}

func TestManaSizeSamples(t *testing.T) {
	m := NewMana()
	m.SampleSize(0)
	m.HarvestDirect(0, lnk(ieee80211.MAC{1}), "a")
	m.SampleSize(time.Minute)
	s := m.SizeSamples()
	if len(s) != 2 || s[0].Size != 0 || s[1].Size != 1 || s[1].At != time.Minute {
		t.Errorf("samples = %+v", s)
	}
}

func TestReportClassification(t *testing.T) {
	fx := newFixture(t)
	a := fx.newAttacker(t, NewKarma(), Config{})
	fx.newClient(t, client.Config{
		PNL:          pnl.List{{SSID: "Open", Open: true}},
		DirectProber: true,
	})
	fx.newClient(t, client.Config{PNL: pnl.List{{SSID: "Other", Open: true}}})
	fx.newClient(t, client.Config{PNL: pnl.List{{SSID: "Third"}}})
	fx.engine.RunContext(context.Background(), time.Minute)

	r := a.Report()
	if r.TotalClients != 3 {
		t.Errorf("TotalClients = %d, want 3", r.TotalClients)
	}
	if r.DirectClients != 1 || r.BroadcastClients != 2 {
		t.Errorf("direct/broadcast = %d/%d, want 1/2", r.DirectClients, r.BroadcastClients)
	}
	if r.ConnectedDirect != 1 || r.ConnectedBroadcast != 0 {
		t.Errorf("connected = %d/%d, want 1/0", r.ConnectedDirect, r.ConnectedBroadcast)
	}
}

func TestVictimCountedOnce(t *testing.T) {
	fx := newFixture(t)
	a := fx.newAttacker(t, NewKarma(), Config{})
	c := fx.newClient(t, client.Config{
		PNL:          pnl.List{{SSID: "Open", Open: true}},
		DirectProber: true,
	})
	fx.engine.RunContext(context.Background(), 30*time.Second)
	if !c.Stats.Connected {
		t.Fatal("no capture")
	}
	// Deauth the victim; it reconnects but must not be double counted.
	a.radio.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeDeauth,
		DA:      c.Addr(), SA: attackerMAC, BSSID: attackerMAC,
	})
	fx.engine.RunContext(context.Background(), fx.engine.Now()+time.Minute)
	if got := len(a.Victims()); got != 1 {
		t.Errorf("victims = %d, want 1 after reconnect", got)
	}
}

func TestDeauthExtensionFreesPreconnectedClients(t *testing.T) {
	fx := newFixture(t)
	legit, err := ap.New(fx.engine, fx.medium, ap.Config{
		MAC:  ieee80211.MAC{0x0a, 1, 1, 1, 1, 1},
		SSID: "Legit Venue WiFi",
		Pos:  geo.Pt(10, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := legit.Start(); err != nil {
		t.Fatal(err)
	}

	mana := NewMana()
	a := fx.newAttacker(t, mana, Config{
		Deauth: DeauthConfig{Enabled: true, Interval: 2 * time.Second},
	})
	mana.HarvestDirect(0, lnk(ieee80211.MAC{9}), "Popular Net")

	c := fx.newClient(t, client.Config{
		PNL:               pnl.List{{SSID: "Popular Net", Open: true}},
		PreconnectedBSSID: legit.Addr(),
	})
	fx.engine.RunContext(context.Background(), time.Minute)
	if !c.Stats.Connected || c.Stats.ConnectedTo != attackerMAC {
		t.Fatalf("preconnected client not captured: connected=%v to=%v",
			c.Stats.Connected, c.Stats.ConnectedTo)
	}
	if a.Report().DeauthsSent == 0 {
		t.Error("no deauths sent")
	}
	if legit.BeaconsSent == 0 {
		t.Error("AP sent no beacons")
	}
}

func TestDeauthDisabledNoSpoofing(t *testing.T) {
	fx := newFixture(t)
	legit, err := ap.New(fx.engine, fx.medium, ap.Config{
		MAC:  ieee80211.MAC{0x0a, 1, 1, 1, 1, 1},
		SSID: "Legit",
		Pos:  geo.Pt(10, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := legit.Start(); err != nil {
		t.Fatal(err)
	}
	a := fx.newAttacker(t, NewKarma(), Config{})
	c := fx.newClient(t, client.Config{
		PNL:               pnl.List{{SSID: "X", Open: true}},
		PreconnectedBSSID: legit.Addr(),
	})
	fx.engine.RunContext(context.Background(), time.Minute)
	if c.Stats.Connected && c.Stats.ConnectedTo == attackerMAC {
		t.Error("captured preconnected client without deauth extension")
	}
	if a.Report().DeauthsSent != 0 {
		t.Errorf("DeauthsSent = %d, want 0", a.Report().DeauthsSent)
	}
}

func TestStrategyNames(t *testing.T) {
	if NewKarma().Name() != "KARMA" || NewMana().Name() != "MANA" {
		t.Error("unexpected strategy names")
	}
}

// TestTable1Shape runs KARMA and MANA against the same synthetic crowd
// shape and checks the paper's Table I ordering: MANA's broadcast hit rate
// beats KARMA's zero, and both capture some direct probers.
func TestTable1Shape(t *testing.T) {
	run := func(s Strategy) Report {
		fx := newFixture(t)
		a := fx.newAttacker(t, s, Config{})
		rng := rand.New(rand.NewSource(99))
		// 120 phones: 15% direct probers; 20% have an open popular
		// SSID; direct probers also disclose it so MANA can harvest.
		for i := 0; i < 120; i++ {
			var list pnl.List
			if rng.Float64() < 0.20 {
				list = append(list, pnl.Network{SSID: "Popular Free WiFi", Open: true})
			}
			list = append(list, pnl.Network{SSID: "HOME-" + string(rune('a'+i%26)) + string(rune('a'+i/26))})
			cfg := client.Config{
				MAC:          ieee80211.RandomMAC(rng),
				PNL:          list,
				DirectProber: rng.Float64() < 0.15,
				ScanInterval: 20 * time.Second,
			}
			c, err := client.New(fx.engine, fx.medium, rng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.SetPos(geo.Pt(rng.Float64()*40-20, rng.Float64()*40-20))
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
		}
		fx.engine.RunContext(context.Background(), 30*time.Minute)
		return a.Report()
	}

	karma := run(NewKarma())
	mana := run(NewMana())
	if karma.ConnectedBroadcast != 0 {
		t.Errorf("KARMA captured %d broadcast probers, want 0", karma.ConnectedBroadcast)
	}
	if mana.ConnectedBroadcast <= 0 {
		t.Errorf("MANA captured %d broadcast probers, want > 0", mana.ConnectedBroadcast)
	}
	h := func(r Report) float64 {
		return float64(r.ConnectedDirect+r.ConnectedBroadcast) / float64(r.TotalClients)
	}
	if h(mana) <= h(karma) {
		t.Errorf("MANA h %.3f should beat KARMA h %.3f", h(mana), h(karma))
	}
}

func TestManaLoudAnswersDirectProbesWithDB(t *testing.T) {
	fx := newFixture(t)
	mana := NewMana()
	mana.Loud = true
	fx.newAttacker(t, mana, Config{})

	// Seed the database via one discloser.
	mana.HarvestDirect(0, lnk(ieee80211.MAC{9}), "Shared Open Net")

	// A direct prober whose own entries are all secured would never be
	// captured by quiet MANA — loud mode hits it with the harvested SSID.
	c := fx.newClient(t, client.Config{
		PNL: pnl.List{
			{SSID: "HOME-secure"},
			{SSID: "Shared Open Net", Open: true},
		},
		DirectProber: true,
	})
	fx.engine.RunContext(context.Background(), time.Minute)
	if !c.Stats.Connected {
		t.Fatal("loud MANA did not capture the direct prober via its database")
	}
	if c.Stats.ConnectedVia != "Shared Open Net" {
		t.Errorf("via %q", c.Stats.ConnectedVia)
	}
}

func TestManaQuietDoesNotVolunteer(t *testing.T) {
	m := NewMana()
	m.HarvestDirect(0, lnk(ieee80211.MAC{9}), "X")
	if got := m.DirectReply(0, lnk(ieee80211.MAC{1}), "Y", 40); got != nil {
		t.Errorf("quiet MANA volunteered %v", got)
	}
	m.Loud = true
	if got := m.DirectReply(0, lnk(ieee80211.MAC{1}), "X", 40); len(got) != 0 {
		t.Errorf("loud MANA re-sent the mirrored SSID: %v", got)
	}
	m.HarvestDirect(0, lnk(ieee80211.MAC{9}), "Z")
	got := m.DirectReply(0, lnk(ieee80211.MAC{1}), "X", 40)
	if len(got) != 1 || got[0] != "Z" {
		t.Errorf("DirectReply = %v, want [Z]", got)
	}
}

func TestAttackerRespectsReplyBudget(t *testing.T) {
	fx := newFixture(t)
	mana := NewMana()
	for i := 0; i < 200; i++ {
		mana.HarvestDirect(0, lnk(ieee80211.MAC{9}), fmt.Sprintf("net-%03d", i))
	}
	fx.newAttacker(t, mana, Config{MaxBroadcastReplies: 15})
	reg := obs.NewRegistry()
	fx.medium.Instrument(&obs.Runtime{Metrics: reg})
	// One broadcast probe from a bystander triggers the batch.
	probe := &ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC,
		SA:      ieee80211.MAC{0x02, 1, 2, 3, 4, 5},
		BSSID:   ieee80211.BroadcastMAC,
	}
	bystander := &bystanderStation{addr: probe.SA}
	radio, err := fx.medium.Attach(bystander)
	if err != nil {
		t.Fatal(err)
	}
	radio.Transmit(probe)
	fx.engine.RunContext(context.Background(), time.Second)
	replies := reg.Snapshot().Value("medium_frames_sent", "subtype", ieee80211.SubtypeProbeResponse.String())
	if replies != 15 {
		t.Errorf("attacker sent %v replies, want the configured 15", replies)
	}
}

type bystanderStation struct {
	addr ieee80211.MAC
}

func (s *bystanderStation) Addr() ieee80211.MAC      { return s.addr }
func (s *bystanderStation) Pos() geo.Point           { return geo.Pt(1, 0) }
func (s *bystanderStation) Receive(*ieee80211.Frame) {}
