// Package attack implements the evil-twin attacker station and the two
// baseline strategies the paper compares against: KARMA (answer directed
// probes only) and MANA (additionally harvest disclosed SSIDs and replay
// them to broadcast probes).
//
// The attacker is split into a reusable base station — radio behaviour,
// handshake completion, victim accounting, the optional deauthentication
// extension — and a Strategy that decides which SSIDs to advertise to a
// broadcast probe. City-Hunter (internal/core) plugs into the same base.
package attack

import (
	"fmt"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/linker"
	"cityhunter/internal/obs"
	"cityhunter/internal/sim"
)

// Strategy decides how an attacker uses SSID knowledge. Probing clients
// are handed over as linker.Observations — the over-the-air MAC plus every
// side channel a de-anonymising strategy can key on (sequence counter, IE
// fingerprint, probed SSID) — so a strategy may track devices across MAC
// randomization rather than trusting the source address.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// HarvestDirect is called for every SSID disclosed in a directed
	// probe, with the prober's observation.
	HarvestDirect(now time.Duration, o linker.Observation, ssid string)
	// BroadcastReply returns the SSIDs (at most limit) to advertise to a
	// broadcast probe from the observed client. The slice may be the
	// strategy's own buffer: it is valid until the strategy's next call,
	// and the caller neither keeps nor modifies it.
	BroadcastReply(now time.Duration, o linker.Observation, limit int) []string
	// RecordHit is called when the observed victim completes association
	// via ssid.
	RecordHit(now time.Duration, victim linker.Observation, ssid string)
}

// Knower is an optional Strategy extension: strategies that can say
// whether an SSID is already in their database implement it, enabling the
// cautious-mirror mode below.
type Knower interface {
	// Knows reports whether ssid is already in the strategy's database.
	Knows(ssid string) bool
}

// DirectReplier is an optional Strategy extension: strategies that also
// volunteer additional SSIDs when answering a *directed* probe (beyond the
// KARMA-style mirror the base station already sends) implement it.
// hostapd-mana's "loud" mode behaves this way: any probe, directed or not,
// is answered with the whole database.
type DirectReplier interface {
	// DirectReply returns extra SSIDs (at most limit) to advertise to a
	// directed probe for probed from the observed client.
	DirectReply(now time.Duration, o linker.Observation, probed string, limit int) []string
}

// Victim is one captured client.
type Victim struct {
	// MAC identifies the phone.
	MAC ieee80211.MAC
	// SSID is the network name that lured it.
	SSID string
	// At is the association completion time.
	At time.Duration
	// DirectProber records whether the phone had disclosed PNL entries
	// in directed probes — the paper's client classification.
	DirectProber bool
}

// DeauthConfig controls the §V-B deauthentication extension: the attacker
// learns legitimate APs from their beacons and periodically broadcasts
// spoofed deauthentication frames so that already-connected phones start
// scanning again.
type DeauthConfig struct {
	// Enabled turns the extension on.
	Enabled bool
	// Interval is the spoofed-deauth period per known AP.
	Interval time.Duration
}

// Config describes the attacker station.
type Config struct {
	// MAC is the attacker's BSSID.
	MAC ieee80211.MAC
	// Pos is the fixed deployment position.
	Pos geo.Point
	// Channel advertised in probe responses.
	Channel uint8
	// MaxBroadcastReplies caps the response batch per broadcast probe;
	// zero selects the protocol limit of 40.
	MaxBroadcastReplies int
	// RespondToDirect enables KARMA-style mirroring of directed probes.
	// All three attackers in the paper do this.
	RespondToDirect bool
	// CautiousMirror restricts mirroring to SSIDs the strategy has seen
	// before (requires the strategy to implement Knower). It is the
	// attacker's counter-move against canary probing: a probe for a
	// never-seen SSID goes unanswered, so the canary draws no response —
	// at the cost of the first-sighting direct hits an eager mirror gets.
	CautiousMirror bool
	// Beacons, when non-empty, makes the station cycle through the list
	// broadcasting one forged open-network beacon per BeaconEvery — the
	// wifiphisher "known beacons" technique, which lures passively
	// scanning phones without ever answering a probe.
	Beacons []string
	// BeaconEvery is the beacon pacing; zero selects 20 ms.
	BeaconEvery time.Duration
	// Deauth configures the deauthentication extension.
	Deauth DeauthConfig
	// Obs, when non-nil, instruments the station: probe/response counters,
	// reply-batch spans on the trace, and association/deauth journal
	// events.
	Obs *obs.Runtime
	// Site, when non-empty, labels the attacker's metric series with
	// site=<Site>, so a live monitor can tell co-deployed attackers apart.
	Site string
}

// clientInfo tracks what the attacker knows about one prober.
type clientInfo struct {
	directProber bool
	connected    bool
}

// Attacker is the evil-twin base station.
type Attacker struct {
	cfg      Config
	engine   *sim.Engine
	medium   *sim.Medium
	radio    *sim.Radio
	strategy Strategy

	seq     uint16
	clients map[ieee80211.MAC]*clientInfo
	// victims in capture order.
	victims []Victim

	// knownAPs are BSSIDs learnt from beacons, in discovery order, for
	// the deauth extension.
	knownAPs   []ieee80211.MAC
	knownAPSet map[ieee80211.MAC]bool

	// Counters.
	directProbesHeard    int
	broadcastProbesHeard int
	deauthsSent          int
	beaconsSent          int

	// Observability handles; all nil-safe when unset.
	rt           *obs.Runtime
	trace        *obs.Trace
	tid          int
	mDirect      *obs.Counter
	mBroadcast   *obs.Counter
	mResponses   *obs.Counter
	mVictims     *obs.Counter
	mDeauths     *obs.Counter
	mBeaconsSent *obs.Counter
}

// New builds an attacker with the given strategy.
func New(engine *sim.Engine, medium *sim.Medium, strategy Strategy, cfg Config) (*Attacker, error) {
	if strategy == nil {
		return nil, fmt.Errorf("attack: nil strategy")
	}
	if cfg.MAC == (ieee80211.MAC{}) {
		return nil, fmt.Errorf("attack: zero MAC")
	}
	if cfg.MaxBroadcastReplies <= 0 {
		cfg.MaxBroadcastReplies = ieee80211.MaxResponsesPerScan
	}
	if cfg.Deauth.Enabled && cfg.Deauth.Interval <= 0 {
		cfg.Deauth.Interval = 5 * time.Second
	}
	if len(cfg.Beacons) > 0 && cfg.BeaconEvery <= 0 {
		cfg.BeaconEvery = 20 * time.Millisecond
	}
	a := &Attacker{
		cfg:        cfg,
		engine:     engine,
		medium:     medium,
		strategy:   strategy,
		clients:    make(map[ieee80211.MAC]*clientInfo),
		knownAPSet: make(map[ieee80211.MAC]bool),
	}
	if rt := cfg.Obs; rt != nil {
		a.rt = rt
		a.trace = rt.Trace
		a.tid = rt.Trace.Track("attacker " + cfg.MAC.String())
		if rt.Metrics != nil {
			counter := func(name string, labels ...string) *obs.Counter {
				if cfg.Site != "" {
					labels = append(labels, "site", cfg.Site)
				}
				return rt.Metrics.Counter(name, labels...)
			}
			a.mDirect = counter("attack_probes_heard", "kind", "directed")
			a.mBroadcast = counter("attack_probes_heard", "kind", "broadcast")
			a.mResponses = counter("attack_probe_responses_sent")
			a.mVictims = counter("attack_victims")
			a.mDeauths = counter("attack_deauths_sent")
			a.mBeaconsSent = counter("attack_beacons_sent")
		}
	}
	return a, nil
}

// Addr implements sim.Station.
func (a *Attacker) Addr() ieee80211.MAC { return a.cfg.MAC }

// Pos implements sim.Station.
func (a *Attacker) Pos() geo.Point { return a.cfg.Pos }

// CurrentChannel implements sim.ChannelTuner: the attacker camps on its
// configured channel (0 = channel-agnostic, useful in unit tests).
func (a *Attacker) CurrentChannel() uint8 { return a.cfg.Channel }

// Start attaches the attacker to the medium and arms the deauth loop when
// enabled.
func (a *Attacker) Start() error {
	var err error
	if a.radio, err = a.medium.Attach(a); err != nil {
		return fmt.Errorf("attack: %w", err)
	}
	if a.cfg.Deauth.Enabled {
		a.scheduleDeauthSweep()
	}
	if len(a.cfg.Beacons) > 0 {
		a.scheduleBeacon(0)
	}
	return nil
}

// scheduleBeacon transmits the idx-th known beacon and re-arms for the
// next one, cycling the list.
func (a *Attacker) scheduleBeacon(idx int) {
	a.engine.Schedule(a.cfg.BeaconEvery, func() {
		a.beaconsSent++
		a.mBeaconsSent.Inc()
		a.send(ieee80211.Frame{
			Subtype:          ieee80211.SubtypeBeacon,
			DA:               ieee80211.BroadcastMAC,
			SSID:             a.cfg.Beacons[idx%len(a.cfg.Beacons)],
			Capability:       ieee80211.CapESS,
			Channel:          a.cfg.Channel,
			BeaconIntervalTU: 100,
		})
		a.scheduleBeacon(idx + 1)
	})
}

// Receive implements sim.Station.
func (a *Attacker) Receive(f *ieee80211.Frame) {
	switch f.Subtype {
	case ieee80211.SubtypeProbeRequest:
		a.onProbe(f)
	case ieee80211.SubtypeAuth:
		a.onAuth(f)
	case ieee80211.SubtypeAssocRequest:
		a.onAssocRequest(f)
	case ieee80211.SubtypeBeacon:
		a.onBeacon(f)
	}
}

func (a *Attacker) client(mac ieee80211.MAC) *clientInfo {
	ci, ok := a.clients[mac]
	if !ok {
		ci = &clientInfo{}
		a.clients[mac] = ci
	}
	return ci
}

// observation condenses a received frame into what a linking strategy can
// key on.
func observation(now time.Duration, f *ieee80211.Frame) linker.Observation {
	return linker.Observation{
		At:          now,
		MAC:         f.SA,
		Seq:         f.Seq,
		Fingerprint: f.Fingerprint,
		SSID:        f.SSID,
		Directed:    f.IsDirectedProbe(),
	}
}

func (a *Attacker) onProbe(f *ieee80211.Frame) {
	now := a.engine.Now()
	ci := a.client(f.SA)
	o := observation(now, f)
	if f.IsDirectedProbe() {
		a.directProbesHeard++
		a.mDirect.Inc()
		ci.directProber = true
		known := false
		if k, ok := a.strategy.(Knower); ok {
			known = k.Knows(f.SSID)
		}
		a.strategy.HarvestDirect(now, o, f.SSID)
		if a.cfg.RespondToDirect && (!a.cfg.CautiousMirror || known) {
			a.respond(f.SA, f.SSID)
		}
		if dr, ok := a.strategy.(DirectReplier); ok {
			for _, ssid := range dr.DirectReply(now, o, f.SSID, a.cfg.MaxBroadcastReplies-1) {
				a.respond(f.SA, ssid)
			}
		}
		return
	}
	a.broadcastProbesHeard++
	a.mBroadcast.Inc()
	batch := a.strategy.BroadcastReply(now, o, a.cfg.MaxBroadcastReplies)
	for _, ssid := range batch {
		a.respond(f.SA, ssid)
	}
	if a.trace != nil && len(batch) > 0 {
		// The batch occupies the radio until the transmit queue drains;
		// that window is the span chrome://tracing shows per reply burst.
		a.trace.Span("attacker", "reply-batch", a.tid, now, a.radio.BusyUntil(),
			map[string]any{"client": f.SA.String(), "ssids": len(batch)})
	}
}

// respond sends one forged open-network probe response.
func (a *Attacker) respond(da ieee80211.MAC, ssid string) {
	a.mResponses.Inc()
	a.send(ieee80211.Frame{
		Subtype:          ieee80211.SubtypeProbeResponse,
		DA:               da,
		SSID:             ssid,
		Capability:       ieee80211.CapESS, // never privacy: the twin must be open
		Channel:          a.cfg.Channel,
		BeaconIntervalTU: 100,
	})
}

func (a *Attacker) onAuth(f *ieee80211.Frame) {
	if f.DA != a.cfg.MAC || f.AuthSeq != 1 {
		return
	}
	a.send(ieee80211.Frame{
		Subtype:       ieee80211.SubtypeAuth,
		DA:            f.SA,
		AuthAlgorithm: ieee80211.AuthOpenSystem,
		AuthSeq:       2,
		Status:        ieee80211.StatusSuccess,
	})
}

func (a *Attacker) onAssocRequest(f *ieee80211.Frame) {
	if f.DA != a.cfg.MAC {
		return
	}
	a.send(ieee80211.Frame{
		Subtype:       ieee80211.SubtypeAssocResponse,
		DA:            f.SA,
		Capability:    ieee80211.CapESS,
		Status:        ieee80211.StatusSuccess,
		AssociationID: uint16(len(a.victims)+1) & 0x3fff,
	})
	ci := a.client(f.SA)
	if ci.connected {
		return // duplicate association (e.g. after deauth) counted once
	}
	ci.connected = true
	now := a.engine.Now()
	a.victims = append(a.victims, Victim{
		MAC:          f.SA,
		SSID:         f.SSID,
		At:           now,
		DirectProber: ci.directProber,
	})
	a.mVictims.Inc()
	detail := fmt.Sprintf("associated via %q", f.SSID)
	if a.cfg.Site != "" {
		detail += " at " + a.cfg.Site
	}
	a.rt.Event(now, obs.EventAssociation, f.SA.String(), detail)
	a.strategy.RecordHit(now, observation(now, f), f.SSID)
}

func (a *Attacker) onBeacon(f *ieee80211.Frame) {
	if f.BSSID == a.cfg.MAC || a.knownAPSet[f.BSSID] {
		return
	}
	a.knownAPSet[f.BSSID] = true
	a.knownAPs = append(a.knownAPs, f.BSSID)
}

// scheduleDeauthSweep broadcasts one spoofed deauthentication per known AP,
// then re-arms.
func (a *Attacker) scheduleDeauthSweep() {
	a.engine.Schedule(a.cfg.Deauth.Interval, func() {
		for _, ap := range a.knownAPs {
			a.deauthsSent++
			a.mDeauths.Inc()
			a.radio.Transmit(&ieee80211.Frame{
				Subtype: ieee80211.SubtypeDeauth,
				DA:      ieee80211.BroadcastMAC,
				SA:      ap,
				BSSID:   ap,
				Reason:  ieee80211.ReasonPrevAuthExpired,
			})
		}
		if len(a.knownAPs) > 0 {
			a.rt.Event(a.engine.Now(), obs.EventDeauthSweep, a.cfg.MAC.String(),
				fmt.Sprintf("spoofed %d deauth broadcasts", len(a.knownAPs)))
		}
		a.scheduleDeauthSweep()
	})
}

// send stamps the attacker's addressing and next sequence number on a
// template and transmits it, returning when it finishes on air.
func (a *Attacker) send(f ieee80211.Frame) time.Duration {
	f.SA = a.cfg.MAC
	f.BSSID = a.cfg.MAC
	a.seq = (a.seq + 1) & 0x0fff
	f.Seq = a.seq
	return a.radio.Transmit(&f)
}

// Victims returns the captured clients in capture order.
func (a *Attacker) Victims() []Victim {
	out := make([]Victim, len(a.victims))
	copy(out, a.victims)
	return out
}

// Report summarises the deployment the way the paper's tables do.
type Report struct {
	// Strategy names the attack.
	Strategy string
	// TotalClients is the number of distinct probing phones heard.
	TotalClients int
	// DirectClients / BroadcastClients split them by probing style.
	DirectClients    int
	BroadcastClients int
	// ConnectedDirect / ConnectedBroadcast split the victims the same way.
	ConnectedDirect    int
	ConnectedBroadcast int
	// DeauthsSent counts spoofed deauthentication frames.
	DeauthsSent int
	// BeaconsSent counts forged known beacons.
	BeaconsSent int
}

// Report summarises the attacker's observations so far.
func (a *Attacker) Report() Report {
	r := Report{Strategy: a.strategy.Name(), DeauthsSent: a.deauthsSent, BeaconsSent: a.beaconsSent}
	for _, ci := range a.clients {
		r.TotalClients++
		if ci.directProber {
			r.DirectClients++
		} else {
			r.BroadcastClients++
		}
	}
	for _, v := range a.victims {
		if v.DirectProber {
			r.ConnectedDirect++
		} else {
			r.ConnectedBroadcast++
		}
	}
	return r
}
