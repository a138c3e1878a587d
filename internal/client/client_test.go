package client

import (
	"context"
	"maps"
	"math/rand"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/pnl"
	"cityhunter/internal/sim"
)

// responder is a minimal evil-twin stand-in: it answers broadcast probes
// with a fixed SSID batch, mirrors directed probes when configured, and
// completes handshakes.
type responder struct {
	addr   ieee80211.MAC
	pos    geo.Point
	engine *sim.Engine
	radio  *sim.Radio

	replySSIDs  []string
	respChannel uint8 // DS channel advertised in responses (0 → 6)
	onProbe     func(sa ieee80211.MAC)
	mirror      bool // respond to directed probes with the probed SSID
	privacy     bool // set the privacy bit in responses
	refuseAuth  bool
	refuseAssoc bool
	silent      bool

	directProbes    int
	directSSIDs     map[string]int // directed probes heard, by SSID
	broadcastProbes int
	associations    int
}

func (r *responder) Addr() ieee80211.MAC { return r.addr }
func (r *responder) Pos() geo.Point      { return r.pos }

func (r *responder) Receive(f *ieee80211.Frame) {
	caps := ieee80211.CapESS
	if r.privacy {
		caps |= ieee80211.CapPrivacy
	}
	ch := r.respChannel
	if ch == 0 {
		ch = 6
	}
	switch f.Subtype {
	case ieee80211.SubtypeProbeRequest:
		if r.onProbe != nil {
			r.onProbe(f.SA)
		}
		if f.IsDirectedProbe() {
			r.directProbes++
			if r.directSSIDs == nil {
				r.directSSIDs = make(map[string]int)
			}
			r.directSSIDs[f.SSID]++
			if r.mirror && !r.silent {
				r.radio.Transmit(&ieee80211.Frame{
					Subtype: ieee80211.SubtypeProbeResponse,
					DA:      f.SA, SA: r.addr, BSSID: r.addr,
					SSID: f.SSID, Capability: caps, Channel: ch,
				})
			}
			return
		}
		r.broadcastProbes++
		if r.silent {
			return
		}
		for _, ssid := range r.replySSIDs {
			r.radio.Transmit(&ieee80211.Frame{
				Subtype: ieee80211.SubtypeProbeResponse,
				DA:      f.SA, SA: r.addr, BSSID: r.addr,
				SSID: ssid, Capability: caps, Channel: ch,
			})
		}
	case ieee80211.SubtypeAuth:
		if r.refuseAuth {
			return
		}
		r.radio.Transmit(&ieee80211.Frame{
			Subtype: ieee80211.SubtypeAuth,
			DA:      f.SA, SA: r.addr, BSSID: r.addr,
			AuthAlgorithm: ieee80211.AuthOpenSystem, AuthSeq: 2,
			Status: ieee80211.StatusSuccess,
		})
	case ieee80211.SubtypeAssocRequest:
		if r.refuseAssoc {
			return
		}
		r.associations++
		r.radio.Transmit(&ieee80211.Frame{
			Subtype: ieee80211.SubtypeAssocResponse,
			DA:      f.SA, SA: r.addr, BSSID: r.addr,
			Capability: caps, Status: ieee80211.StatusSuccess, AssociationID: 1,
		})
	}
}

type fixture struct {
	engine *sim.Engine
	medium *sim.Medium
	resp   *responder
	rng    *rand.Rand
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	e := sim.NewEngine()
	m := sim.NewMedium(e, 50)
	r := &responder{
		addr:   ieee80211.MAC{0x0a, 0, 0, 0, 0, 1},
		pos:    geo.Pt(0, 0),
		engine: e,
	}
	r.radio = attach(t, m, r)
	return &fixture{engine: e, medium: m, resp: r, rng: rand.New(rand.NewSource(1))}
}

// attach attaches s to m and returns its radio, failing the test on error.
func attach(t *testing.T, m *sim.Medium, s sim.Station) *sim.Radio {
	t.Helper()
	r, err := m.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// attached reports whether m holds c's current MAC: the medium refuses to
// attach a MAC it holds, and a free one is detached again at once.
func attached(m *sim.Medium, c *Client) bool {
	r, err := m.Attach(c)
	if err != nil {
		return true
	}
	r.Detach()
	return false
}

func (fx *fixture) newClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	if cfg.MAC == (ieee80211.MAC{}) {
		cfg.MAC = ieee80211.RandomMAC(fx.rng)
	}
	if cfg.ScanInterval == 0 {
		cfg.ScanInterval = 5 * time.Second
	}
	c, err := New(fx.engine, fx.medium, fx.rng, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.SetPos(geo.Pt(5, 0))
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	fx := newFixture(t)
	if _, err := New(fx.engine, fx.medium, fx.rng, Config{}); err == nil {
		t.Error("zero MAC accepted")
	}
}

func TestStartTwiceFails(t *testing.T) {
	fx := newFixture(t)
	c := fx.newClient(t, Config{})
	if err := c.Start(); err == nil {
		t.Error("second Start succeeded")
	}
}

func TestBroadcastOnlyClientProbes(t *testing.T) {
	fx := newFixture(t)
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Home"}}})
	fx.engine.RunContext(context.Background(), 30*time.Second)
	if c.Stats.BroadcastProbes == 0 {
		t.Error("no broadcast probes sent")
	}
	if c.Stats.DirectProbes != 0 {
		t.Errorf("safe client sent %d direct probes", c.Stats.DirectProbes)
	}
	if fx.resp.broadcastProbes != c.Stats.BroadcastProbes {
		t.Errorf("responder heard %d, client sent %d", fx.resp.broadcastProbes, c.Stats.BroadcastProbes)
	}
}

func TestDirectProberDisclosesVisibleEntries(t *testing.T) {
	fx := newFixture(t)
	list := pnl.List{
		{SSID: "Home"},
		{SSID: "Cafe", Open: true},
		{SSID: "PCCW1x", Open: true, Hidden: true},
	}
	c := fx.newClient(t, Config{PNL: list, DirectProber: true})
	fx.engine.RunContext(context.Background(), 6*time.Second)
	if c.Stats.DirectProbes == 0 {
		t.Fatal("no direct probes sent")
	}
	// 2 visible entries, probed once per channel visit.
	if c.Stats.DirectProbes != 2*c.Stats.BroadcastProbes {
		t.Errorf("direct probes = %d, want %d (2 per channel visit)",
			c.Stats.DirectProbes, 2*c.Stats.BroadcastProbes)
	}
	if c.Stats.BroadcastProbes != 3*c.Stats.Scans {
		t.Errorf("broadcast probes = %d over %d scans, want one per channel (3)",
			c.Stats.BroadcastProbes, c.Stats.Scans)
	}
	// The hidden carrier entry is never disclosed; the others are, once
	// per channel visit each.
	want := map[string]int{"Home": c.Stats.BroadcastProbes, "Cafe": c.Stats.BroadcastProbes}
	if !maps.Equal(fx.resp.directSSIDs, want) {
		t.Errorf("directed probes by SSID = %v, want %v", fx.resp.directSSIDs, want)
	}
}

func TestClientConnectsViaBroadcastResponse(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"NotInPNL", "Cafe Free WiFi"}
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Cafe Free WiFi", Open: true}}})
	fx.engine.RunContext(context.Background(), 30*time.Second)
	if !c.Stats.Connected {
		t.Fatal("client did not connect")
	}
	if c.Stats.ConnectedVia != "Cafe Free WiFi" {
		t.Errorf("connected via %q", c.Stats.ConnectedVia)
	}
	if c.Stats.ConnectedTo != fx.resp.addr {
		t.Errorf("connected to %v", c.Stats.ConnectedTo)
	}
	if c.State() != StateConnected {
		t.Errorf("state = %v", c.State())
	}
	if fx.resp.associations != 1 {
		t.Errorf("responder saw %d associations", fx.resp.associations)
	}
}

func TestConnectedClientStopsProbing(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"Net"}
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Net", Open: true}}})
	fx.engine.RunContext(context.Background(), 30*time.Second)
	if !c.Stats.Connected {
		t.Fatal("did not connect")
	}
	before := c.Stats.BroadcastProbes
	fx.engine.RunContext(context.Background(), fx.engine.Now()+2*time.Minute)
	if c.Stats.BroadcastProbes != before {
		t.Errorf("connected client kept probing: %d -> %d", before, c.Stats.BroadcastProbes)
	}
}

func TestSecuredPNLEntryNotHijackable(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"Home"} // twin advertises the SSID as open
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Home", Open: false}}})
	fx.engine.RunContext(context.Background(), time.Minute)
	if c.Stats.Connected {
		t.Error("client auto-joined an open twin of its secured network")
	}
}

func TestPrivacyResponseIgnored(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"Cafe"}
	fx.resp.privacy = true
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Cafe", Open: true}}})
	fx.engine.RunContext(context.Background(), time.Minute)
	if c.Stats.Connected {
		t.Error("client joined a privacy-capable twin without credentials")
	}
}

func TestDirectedProbeMirrorHit(t *testing.T) {
	fx := newFixture(t)
	fx.resp.mirror = true // KARMA-style
	c := fx.newClient(t, Config{
		PNL:          pnl.List{{SSID: "My Open Cafe", Open: true}, {SSID: "Home"}},
		DirectProber: true,
	})
	fx.engine.RunContext(context.Background(), 30*time.Second)
	if !c.Stats.Connected {
		t.Fatal("KARMA-style mirror did not capture direct prober")
	}
	if c.Stats.ConnectedVia != "My Open Cafe" {
		t.Errorf("connected via %q", c.Stats.ConnectedVia)
	}
}

func TestResponseBudgetPerScan(t *testing.T) {
	fx := newFixture(t)
	// Advertise 100 SSIDs; the client must hear at most 40 per scan.
	for i := 0; i < 100; i++ {
		fx.resp.replySSIDs = append(fx.resp.replySSIDs, "junk-"+string(rune('a'+i%26))+string(rune('0'+i/26)))
	}
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "none"}}, ScanInterval: time.Hour})
	fx.engine.RunContext(context.Background(), 30*time.Minute)
	if c.Stats.Scans != 1 {
		t.Fatalf("scans = %d, want 1", c.Stats.Scans)
	}
	if c.Stats.ResponsesHeard > ieee80211.MaxResponsesPerScan {
		t.Errorf("heard %d responses in one scan, budget is %d",
			c.Stats.ResponsesHeard, ieee80211.MaxResponsesPerScan)
	}
	if c.Stats.ResponsesHeard < 30 {
		t.Errorf("heard only %d responses; window should fit ≈40", c.Stats.ResponsesHeard)
	}
}

func TestHandshakeTimeoutRecovers(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"Net"}
	fx.resp.refuseAuth = true
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Net", Open: true}}})
	fx.engine.RunContext(context.Background(), 2*time.Minute)
	if c.Stats.Connected {
		t.Fatal("connected despite refused auth")
	}
	if c.State() != StateScanning && c.State() != StateAssociating {
		t.Errorf("state = %v, want scanning/associating", c.State())
	}
	if c.Stats.BroadcastProbes < 2 {
		t.Errorf("client did not resume scanning after stalled handshake")
	}
}

func TestAssocRefusedRecovers(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"Net"}
	fx.resp.refuseAssoc = true
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Net", Open: true}}})
	fx.engine.RunContext(context.Background(), 2*time.Minute)
	if c.Stats.Connected {
		t.Fatal("connected despite refused assoc")
	}
	if c.Stats.BroadcastProbes < 2 {
		t.Error("client did not resume scanning")
	}
}

func TestDeauthTriggersRescan(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"Net"}
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Net", Open: true}}})
	fx.engine.RunContext(context.Background(), 30*time.Second)
	if !c.Stats.Connected {
		t.Fatal("did not connect")
	}
	probesBefore := c.Stats.BroadcastProbes
	fx.resp.radio.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeDeauth,
		DA:      c.Addr(), SA: fx.resp.addr, BSSID: fx.resp.addr,
		Reason: ieee80211.ReasonDeauthLeaving,
	})
	fx.engine.RunContext(context.Background(), fx.engine.Now()+30*time.Second)
	if c.Stats.Deauths != 1 {
		t.Errorf("Deauths = %d, want 1", c.Stats.Deauths)
	}
	if c.Stats.BroadcastProbes <= probesBefore {
		t.Error("no rescan after deauth")
	}
}

func TestDeauthFromStrangerIgnored(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"Net"}
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Net", Open: true}}})
	fx.engine.RunContext(context.Background(), 30*time.Second)
	if !c.Stats.Connected {
		t.Fatal("did not connect")
	}
	stranger := ieee80211.MAC{0x0a, 9, 9, 9, 9, 9}
	fx.resp.radio.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeDeauth,
		DA:      c.Addr(), SA: stranger, BSSID: stranger,
	})
	fx.engine.RunContext(context.Background(), fx.engine.Now()+5*time.Second)
	if c.Stats.Deauths != 0 {
		t.Error("deauth from stranger accepted")
	}
	if c.State() != StateConnected {
		t.Errorf("state = %v", c.State())
	}
}

func TestPreconnectedClientSilentUntilDeauth(t *testing.T) {
	fx := newFixture(t)
	legit := ieee80211.MAC{0x0a, 5, 5, 5, 5, 5}
	fx.resp.replySSIDs = []string{"Net"}
	c := fx.newClient(t, Config{
		PNL:               pnl.List{{SSID: "Net", Open: true}},
		PreconnectedBSSID: legit,
	})
	fx.engine.RunContext(context.Background(), 2*time.Minute)
	if c.Stats.BroadcastProbes != 0 {
		t.Fatalf("preconnected client sent %d probes", c.Stats.BroadcastProbes)
	}
	// Broadcast deauth spoofing the legit AP (the paper's §V-B attack),
	// physically radiated by the attacker's radio.
	fx.resp.radio.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeDeauth,
		DA:      ieee80211.BroadcastMAC, SA: legit, BSSID: legit,
		Reason: ieee80211.ReasonDeauthLeaving,
	})
	fx.engine.RunContext(context.Background(), fx.engine.Now()+2*time.Minute)
	if c.Stats.BroadcastProbes == 0 {
		t.Error("no probing after spoofed deauth")
	}
	if !c.Stats.Connected {
		t.Error("attacker failed to capture deauthed client")
	}
}

func TestDepartStopsActivity(t *testing.T) {
	fx := newFixture(t)
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "x"}}})
	fx.engine.RunContext(context.Background(), 12*time.Second)
	c.Depart()
	probes := c.Stats.BroadcastProbes
	fx.engine.RunContext(context.Background(), fx.engine.Now()+2*time.Minute)
	if c.Stats.BroadcastProbes != probes {
		t.Error("departed client kept probing")
	}
	if c.State() != StateDeparted {
		t.Errorf("state = %v", c.State())
	}
	c.Depart() // idempotent
	if attached(fx.medium, c) {
		t.Error("departed client still attached")
	}
}

func TestDepartMidHandshakeNoConnection(t *testing.T) {
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"Net"}
	var c *Client
	c = fx.newClient(t, Config{PNL: pnl.List{{SSID: "Net", Open: true}}, ScanInterval: time.Second})
	// Depart right after the scan window would close but likely
	// mid-handshake: sample states at a fine grain and depart on
	// associating.
	departed := false
	var tick func()
	tick = func() {
		if c.State() == StateAssociating && !departed {
			departed = true
			c.Depart()
			return
		}
		if !departed {
			fx.engine.Schedule(time.Millisecond, tick)
		}
	}
	fx.engine.Schedule(0, tick)
	fx.engine.RunContext(context.Background(), time.Minute)
	if !departed {
		t.Skip("handshake window never observed at this resolution")
	}
	if c.Stats.Connected {
		t.Error("client connected after departing mid-handshake")
	}
}

func TestStateString(t *testing.T) {
	states := []State{StateIdle, StateScanning, StateAssociating, StateConnected, StateDeparted, State(99)}
	seen := make(map[string]bool)
	for _, s := range states {
		if str := s.String(); str == "" || seen[str] {
			t.Errorf("bad State string %q", str)
		} else {
			seen[str] = true
		}
	}
}

func TestWindowNoResponsesNoAssociation(t *testing.T) {
	fx := newFixture(t)
	fx.resp.silent = true
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "Net", Open: true}}})
	fx.engine.RunContext(context.Background(), time.Minute)
	if c.Stats.Connected {
		t.Error("connected with a silent responder")
	}
	if c.Stats.ResponsesHeard != 0 {
		t.Errorf("heard %d responses", c.Stats.ResponsesHeard)
	}
}

func TestRandomizeMACRotatesPerScan(t *testing.T) {
	fx := newFixture(t)
	c := fx.newClient(t, Config{
		PNL:           pnl.List{{SSID: "none"}},
		ScanInterval:  2 * time.Second,
		Randomization: RandomizePerScan,
	})
	seen := make(map[ieee80211.MAC]bool)
	initial := c.Addr()
	var tick func()
	tick = func() {
		seen[c.Addr()] = true
		fx.engine.Schedule(500*time.Millisecond, tick)
	}
	fx.engine.Schedule(0, tick)
	fx.engine.RunContext(context.Background(), 30*time.Second)
	delete(seen, initial)
	if len(seen) < 5 {
		t.Errorf("observed %d distinct MACs over ~15 scans, want several", len(seen))
	}
	// The phone stays attached under its latest identity.
	if !attached(fx.medium, c) {
		t.Error("client detached after rotations")
	}
}

func TestRandomizeMACDefeatsRotationTracking(t *testing.T) {
	// With a responder advertising junk, a fixed-MAC client accumulates a
	// growing ResponsesHeard; the attacker side of that effect (the
	// untried rotation reset) is covered in the scenario tests. Here we
	// just check the MAC visible to the responder changes.
	fx := newFixture(t)
	fx.resp.replySSIDs = []string{"junk-a", "junk-b"}
	seen := make(map[ieee80211.MAC]bool)
	fx.resp.onProbe = func(sa ieee80211.MAC) { seen[sa] = true }
	c := fx.newClient(t, Config{
		PNL:           pnl.List{{SSID: "none"}},
		ScanInterval:  2 * time.Second,
		Randomization: RandomizePerScan,
	})
	fx.engine.RunContext(context.Background(), 20*time.Second)
	_ = c
	if len(seen) < 4 {
		t.Errorf("responder saw %d distinct MACs, want several", len(seen))
	}
}

// tunedResponder wraps the responder on a fixed channel.
type tunedResponder struct {
	*responder
	channel uint8
}

func (r *tunedResponder) CurrentChannel() uint8 { return r.channel }

func TestClientFindsAttackerOnAnyScanChannel(t *testing.T) {
	for _, ch := range []uint8{1, 6, 11} {
		e := sim.NewEngine()
		m := sim.NewMedium(e, 50)
		base := &responder{
			addr: ieee80211.MAC{0x0a, 0, 0, 0, 0, 1}, pos: geo.Pt(0, 0),
			engine: e, replySSIDs: []string{"Net"}, respChannel: ch,
		}
		tuned := &tunedResponder{responder: base, channel: ch}
		tuned.radio = attach(t, m, tuned)
		rng := rand.New(rand.NewSource(int64(ch)))
		c, err := New(e, m, rng, Config{
			MAC:          ieee80211.RandomMAC(rng),
			PNL:          pnl.List{{SSID: "Net", Open: true}},
			ScanInterval: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.SetPos(geo.Pt(5, 0))
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		e.RunContext(context.Background(), 30*time.Second)
		if !c.Stats.Connected {
			t.Errorf("client missed attacker on channel %d", ch)
		}
		// After association the client sits on the responder's channel
		// (the response carries it in the DS element).
		if got := c.CurrentChannel(); got != ch {
			t.Errorf("client on channel %d after associating to channel-%d AP", got, ch)
		}
	}
}

func TestClientSkipsChannelsNotConfigured(t *testing.T) {
	fx := newFixture(t)
	// A client pinned to channel 1 with the responder effectively
	// wildcard still works; but pin the responder via a tuned wrapper on
	// channel 11 and a client scanning only {1, 6} never hears it.
	e := sim.NewEngine()
	m := sim.NewMedium(e, 50)
	base := &responder{
		addr: ieee80211.MAC{0x0a, 0, 0, 0, 0, 1}, pos: geo.Pt(0, 0),
		engine: e, replySSIDs: []string{"Net"},
	}
	tuned := &tunedResponder{responder: base, channel: 11}
	tuned.radio = attach(t, m, tuned)
	c, err := New(e, m, fx.rng, Config{
		MAC:          ieee80211.RandomMAC(fx.rng),
		PNL:          pnl.List{{SSID: "Net", Open: true}},
		ScanInterval: 5 * time.Second,
		ScanChannels: []uint8{1, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetPos(geo.Pt(5, 0))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	e.RunContext(context.Background(), time.Minute)
	if c.Stats.Connected {
		t.Error("client connected to an AP on a channel it never scans")
	}
}

func TestLateResponsesIgnored(t *testing.T) {
	// A responder that waits longer than the scan's channel windows
	// never lands its response inside a window, so the client never
	// associates even though the SSID matches.
	e := sim.NewEngine()
	m := sim.NewMedium(e, 50)
	slow := &slowResponder{
		addr: ieee80211.MAC{0x0a, 0, 0, 0, 0, 1}, pos: geo.Pt(0, 0),
		engine: e, delay: 200 * time.Millisecond, ssid: "Net",
	}
	slow.radio = attach(t, m, slow)
	rng := rand.New(rand.NewSource(3))
	c, err := New(e, m, rng, Config{
		MAC:          ieee80211.RandomMAC(rng),
		PNL:          pnl.List{{SSID: "Net", Open: true}},
		ScanInterval: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetPos(geo.Pt(5, 0))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	e.RunContext(context.Background(), 30*time.Second)
	if c.Stats.Connected {
		t.Error("client associated on a response that arrived after the window closed")
	}
	if c.Stats.ResponsesHeard != 0 {
		t.Errorf("counted %d late responses", c.Stats.ResponsesHeard)
	}
}

// slowResponder answers broadcast probes after a fixed delay.
type slowResponder struct {
	addr   ieee80211.MAC
	pos    geo.Point
	engine *sim.Engine
	radio  *sim.Radio
	delay  time.Duration
	ssid   string
}

func (r *slowResponder) Addr() ieee80211.MAC { return r.addr }
func (r *slowResponder) Pos() geo.Point      { return r.pos }
func (r *slowResponder) Receive(f *ieee80211.Frame) {
	switch f.Subtype {
	case ieee80211.SubtypeProbeRequest:
		if !f.IsBroadcastProbe() {
			return
		}
		sa := f.SA
		r.engine.Schedule(r.delay, func() {
			r.radio.Transmit(&ieee80211.Frame{
				Subtype: ieee80211.SubtypeProbeResponse,
				DA:      sa, SA: r.addr, BSSID: r.addr,
				SSID: r.ssid, Capability: ieee80211.CapESS, Channel: 6,
			})
		})
	case ieee80211.SubtypeAuth:
		// Handshakes complete promptly; only probe responses are slow.
		r.radio.Transmit(&ieee80211.Frame{
			Subtype: ieee80211.SubtypeAuth,
			DA:      f.SA, SA: r.addr, BSSID: r.addr,
			AuthAlgorithm: ieee80211.AuthOpenSystem, AuthSeq: 2,
			Status: ieee80211.StatusSuccess,
		})
	case ieee80211.SubtypeAssocRequest:
		r.radio.Transmit(&ieee80211.Frame{
			Subtype: ieee80211.SubtypeAssocResponse,
			DA:      f.SA, SA: r.addr, BSSID: r.addr,
			Capability: ieee80211.CapESS, Status: ieee80211.StatusSuccess, AssociationID: 1,
		})
	}
}

func TestWindowExtensionAllowsSecondResponse(t *testing.T) {
	// A first response inside MinChannelTime opens the MaxChannelTime
	// extension; a second response that lands inside the extension (but
	// after the original MinChannelTime deadline) still counts.
	e := sim.NewEngine()
	m := sim.NewMedium(e, 50)
	first := &slowResponder{
		addr: ieee80211.MAC{0x0a, 0, 0, 0, 0, 1}, pos: geo.Pt(0, 0),
		engine: e, delay: 2 * time.Millisecond, ssid: "decoy",
	}
	second := &slowResponder{
		addr: ieee80211.MAC{0x0a, 0, 0, 0, 0, 2}, pos: geo.Pt(1, 0),
		engine: e, delay: 10 * time.Millisecond, ssid: "Real Net",
	}
	first.radio = attach(t, m, first)
	second.radio = attach(t, m, second)
	rng := rand.New(rand.NewSource(4))
	c, err := New(e, m, rng, Config{
		MAC:          ieee80211.RandomMAC(rng),
		PNL:          pnl.List{{SSID: "Real Net", Open: true}},
		ScanInterval: time.Hour,
		ScanChannels: []uint8{6},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetPos(geo.Pt(5, 0))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	e.RunContext(context.Background(), time.Hour)
	if !c.Stats.Connected {
		t.Fatal("second response inside the extended window was not honoured")
	}
	if c.Stats.ConnectedVia != "Real Net" {
		t.Errorf("via %q", c.Stats.ConnectedVia)
	}
}

func TestSequenceNumbersWrap(t *testing.T) {
	fx := newFixture(t)
	c := fx.newClient(t, Config{PNL: pnl.List{{SSID: "x"}}, ScanInterval: time.Second, ScanChannels: []uint8{6}})
	// Force thousands of transmissions; Marshal rejects seq > 0x0fff, so
	// surviving this run proves the counter wraps.
	fx.engine.RunContext(context.Background(), 90*time.Minute)
	if c.Stats.BroadcastProbes < 4097 {
		t.Skipf("only %d probes, not enough to wrap", c.Stats.BroadcastProbes)
	}
}

func TestCanaryDirectProberStillWorks(t *testing.T) {
	// A defended-but-unsafe phone canary-probes AND direct-probes; the
	// eager mirror answers both, so the phone flags the attacker before
	// evaluating — and must not associate even though its own open
	// network was mirrored too.
	fx := newFixture(t)
	fx.resp.mirror = true
	c := fx.newClient(t, Config{
		PNL:           pnl.List{{SSID: "My Open Cafe", Open: true}},
		DirectProber:  true,
		CanaryProbing: true,
	})
	fx.engine.RunContext(context.Background(), time.Minute)
	if c.Stats.CanaryDetections == 0 {
		t.Fatal("mirroring attacker was not unmasked")
	}
	if c.Stats.Connected {
		t.Error("defended phone associated with an unmasked attacker")
	}
}

func TestPreconnectedWithRandomizedMAC(t *testing.T) {
	// A preconnected phone keeps its MAC until deauthed, then rotates on
	// every scan.
	fx := newFixture(t)
	legit := ieee80211.MAC{0x0a, 5, 5, 5, 5, 5}
	fx.resp.replySSIDs = []string{"Net"}
	c := fx.newClient(t, Config{
		PNL:               pnl.List{{SSID: "Net", Open: true}},
		PreconnectedBSSID: legit,
		Randomization:     RandomizePerScan,
		ScanInterval:      2 * time.Second,
	})
	initial := c.Addr()
	fx.engine.RunContext(context.Background(), 10*time.Second)
	if c.Addr() != initial {
		t.Error("MAC rotated while still associated")
	}
	fx.resp.radio.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeDeauth,
		DA:      ieee80211.BroadcastMAC, SA: legit, BSSID: legit,
	})
	fx.engine.RunContext(context.Background(), fx.engine.Now()+30*time.Second)
	if !c.Stats.Connected || c.Stats.ConnectedTo != fx.resp.addr {
		t.Skip("capture did not complete in this window")
	}
	if c.Addr() == initial {
		t.Error("MAC never rotated after deauth despite per-scan randomization")
	}
}

// TestScanResultsOutliveFrames feeds a scanning client its responses
// through one frame that is rewritten between Receive calls, as the medium
// reuses its frames: the client must keep what it needs of each response,
// join the first joinable one, in arrival order, whose responder no canary
// has unmasked since, and count every response it heard.
func TestScanResultsOutliveFrames(t *testing.T) {
	e := sim.NewEngine()
	m := sim.NewMedium(e, 50)
	rng := rand.New(rand.NewSource(5))
	c, err := New(e, m, rng, Config{
		MAC: ieee80211.MAC{0x02, 0, 0, 0, 0, 9},
		PNL: pnl.List{
			{SSID: "Open One", Open: true},
			{SSID: "Open Two", Open: true},
			{SSID: "Home"},
		},
		CanaryProbing: true,
		ScanInterval:  time.Hour,
		ScanChannels:  []uint8{6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.scan() // opens channel 6's window now; the scheduled first scan goes stale

	twin := func(b byte) ieee80211.MAC { return ieee80211.MAC{0x0a, 0, 0, 0, 0, b} }
	unmasked, joined := twin(3), twin(4)
	f := &ieee80211.Frame{}
	respond := func(sa ieee80211.MAC, ssid string, caps ieee80211.CapabilityInfo, ch uint8) {
		*f = ieee80211.Frame{
			Subtype: ieee80211.SubtypeProbeResponse,
			DA:      c.Addr(), SA: sa, BSSID: sa,
			SSID: ssid, Capability: caps, Channel: ch,
		}
		c.Receive(f)
	}
	respond(twin(1), "Open One", ieee80211.CapESS|ieee80211.CapPrivacy, 1) // encrypted
	respond(twin(2), "Not Remembered", ieee80211.CapESS, 2)                // not in the PNL
	respond(unmasked, "Open One", ieee80211.CapESS, 3)                     // joinable until the canary
	respond(joined, "Open Two", ieee80211.CapESS, 11)
	respond(twin(5), "Open One", ieee80211.CapESS, 5)
	respond(unmasked, c.canarySSID, ieee80211.CapESS, 3) // mimics the canary
	// Leave the frame looking like the encrypted response: a client that
	// kept the pointer would now see nothing joinable.
	respond(twin(1), "Open One", ieee80211.CapESS|ieee80211.CapPrivacy, 1)

	e.RunContext(context.Background(), e.Now()+ieee80211.MaxChannelTime+time.Millisecond)
	if c.State() != StateAssociating || c.peer != joined || c.joinSSID != "Open Two" {
		t.Fatalf("state %v with peer %v via %q, want associating with %v via %q",
			c.State(), c.peer, c.joinSSID, joined, "Open Two")
	}
	if ch := c.CurrentChannel(); ch != 11 {
		t.Errorf("tuned to channel %d, want the joined responder's 11", ch)
	}
	if c.Stats.ResponsesHeard != 6 || c.Stats.CanaryDetections != 1 {
		t.Errorf("heard %d responses and %d canary detections, want 6 and 1",
			c.Stats.ResponsesHeard, c.Stats.CanaryDetections)
	}
}
