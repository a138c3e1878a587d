package scenario

import (
	"math/rand"
	"time"

	"cityhunter/internal/client"
	"cityhunter/internal/core"
	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/mobility"
	"cityhunter/internal/pnl"
	"cityhunter/internal/sim"
	"cityhunter/internal/stats"
)

// member is one phone in the crowd with its schedule.
type member struct {
	c        *client.Client
	arrived  time.Duration
	departAt time.Duration
	direct   bool

	// site is the index of the deployment site the phone currently dwells
	// at (always 0 for a single-venue run).
	site int
	// roams counts completed inter-site transits.
	roams int
}

// macAllocator hands out unique, deterministic client MACs (locally
// administered). The populations of one site group share an allocator;
// each group has its own block, since allocation order inside one shared
// block would depend on how arrivals interleave across groups.
type macAllocator struct {
	next uint32
	// space overrides the leading two MAC bytes; the zero value selects
	// the classic locally administered 0x02,0x00 block.
	space [2]byte
}

func (a *macAllocator) mac() ieee80211.MAC {
	a.next++
	n := a.next
	sp := a.space
	if sp == ([2]byte{}) {
		sp = [2]byte{0x02, 0x00}
	}
	return ieee80211.MAC{sp[0], sp[1], byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

// siteMACSpace is the client MAC space of deployment site group g > 0
// (group 0 keeps the classic block): locally administered 0x06 block with
// the group index in byte two — disjoint from the classic 0x02,0x00
// allocator and the far-field 0x02,0x10 space for any site count a
// deployment allows.
func siteMACSpace(g int) [2]byte {
	return [2]byte{0x06, byte(g)}
}

// resumeClient restores a suspended phone onto env's engine and medium. The
// snapshot's runtime is re-pointed at env's, so the phone journals and
// traces into the group that now runs it, not the one it left.
func resumeClient(env *runEnv, rng *rand.Rand, snap client.Snapshot) (*client.Client, error) {
	snap.Config.Obs = env.rt
	return client.Resume(env.engine, env.medium, rng, snap)
}

// phoneConfig builds a new phone's configuration, drawing its behaviour
// from rng in the order every seeded result depends on: a direct prober's
// extra remembered open networks, the scan-interval jitter, canary probing,
// then MAC randomization. A phone drawn into the randomizing share rotates
// per scan without a fingerprint unless the scenario names a policy; then
// it follows that policy and stamps its chipset fingerprint. Venue arrivals
// draw from the group's stream, promoted pedestrians from their own.
func (env *runEnv) phoneConfig(rng *rand.Rand, mac ieee80211.MAC, list pnl.List, direct bool) client.Config {
	cfg := env.cfg
	if direct {
		// Unsafe phones skew towards more remembered open networks.
		list = env.model.AugmentUnsafe(rng, list)
	}
	ccfg := client.Config{
		MAC:           mac,
		PNL:           list,
		DirectProber:  direct,
		ScanInterval:  time.Duration(float64(cfg.ScanInterval) * (0.7 + 0.6*rng.Float64())),
		CanaryProbing: cfg.CanaryFraction > 0 && rng.Float64() < cfg.CanaryFraction,
		Obs:           env.rt,
	}
	if cfg.RandomizeMACFraction > 0 && rng.Float64() < cfg.RandomizeMACFraction {
		ccfg.Randomization = client.RandomizePerScan
		if cfg.Randomization != client.RandomizeNone {
			ccfg.Randomization = cfg.Randomization
			ccfg.RandomizeEvery = cfg.RandomizeEvery
			ccfg.Fingerprint = fingerprintFor(mac)
		}
	}
	return ccfg
}

// stay is one dwell at a venue: whether the phone walks, how long it
// stays, and a walker's corridor path.
type stay struct {
	moving bool
	dwell  time.Duration
	path   mobility.Path
}

// drawStay draws a stay at venue from rng: the movement type, then the
// dwell from that type's model, then a walker's path.
func drawStay(rng *rand.Rand, venue Venue) stay {
	s := stay{moving: rng.Float64() < venue.MovingFraction}
	if s.moving {
		s.dwell = venue.MovingDwell.SampleDwell(rng)
		s.path = mobility.CorridorPath(rng, venue.Position, venue.RadioRange, s.dwell)
	} else {
		s.dwell = venue.StaticDwell.SampleDwell(rng)
	}
	return s
}

// startPos is where a phone starts a stay at venue: a walker at the start
// of its path, anyone else at a spot drawn from rng inside 90 % of the
// radio range.
func (s stay) startPos(rng *rand.Rand, venue Venue) geo.Point {
	if s.moving {
		return s.path.At(0)
	}
	return mobility.StaticPos(rng, venue.Position, venue.RadioRange*0.9)
}

// walkStep is how often a walking phone's position advances.
const walkStep = 2 * time.Second

// walk moves c along track every walkStep, reading the track at the engine
// clock minus origin, until c departs. The ticker reads nothing but the
// client it captured: a phone that roams or demotes is suspended, which
// leaves its old client Departed forever, while ANOTHER site group may be
// rewriting the member or pedestrian for its next stay — and every stay
// walks a fresh client.
func walk(engine *sim.Engine, c *client.Client, track interface{ At(time.Duration) geo.Point }, origin time.Duration) {
	var tick func()
	tick = func() {
		if c.State() == client.StateDeparted {
			return
		}
		c.SetPos(track.At(engine.Now() - origin))
		engine.Schedule(walkStep, tick)
	}
	engine.Schedule(walkStep, tick)
}

// outcome scores one phone's stay for the tally: st and macs are its
// accumulated stats and every MAC it appeared under. It counts as connected
// only if it associated to one of the attackers, and its SSIDs sent sum
// what every engine that may have served it sent to those MACs.
func outcome(arrived, departed time.Duration, direct bool, st client.Stats, macs []ieee80211.MAC,
	attackers map[ieee80211.MAC]bool, engines []*core.Engine) stats.ClientOutcome {
	o := stats.ClientOutcome{
		Arrived:      arrived,
		Departed:     departed,
		DirectProber: direct,
		Probed:       st.BroadcastProbes+st.DirectProbes > 0,
		Connected:    st.Connected && attackers[st.ConnectedTo],
		ConnectedAt:  st.ConnectedAt,
		MACsUsed:     len(macs),
	}
	for _, eng := range engines {
		o.SSIDsSent += eng.SentCountAcross(macs)
	}
	return o
}

// population creates phones on arrival at one venue, moves the walkers,
// and ends everyone's dwell on schedule. What happens when a dwell ends is
// pluggable: a single-venue run departs the phone; a deployment may hand
// it a transit leg to another site.
type population struct {
	// env is the environment of the site group the venue belongs to.
	env *runEnv

	// venue is the deployment site this population spawns at.
	venue Venue
	// siteIndex is the venue's position in the deployment's site list.
	siteIndex int
	// legitMAC is the venue's legitimate AP for pre-connected phones.
	legitMAC ieee80211.MAC
	// attackers is the membership test for "associated to a rogue AP".
	attackers map[ieee80211.MAC]bool
	// endDwell decides what a member does when its dwell expires — the
	// deployment's roam-or-leave hook.
	endDwell func(*member)

	members []*member
	macs    *macAllocator
}

// spawnArrivals schedules the slot's arrival stream as social groups.
// Group-size draws happen here, at scheduling time, in arrival order.
func (p *population) spawnArrivals(arrivals []time.Duration, slotStart time.Duration, groups mobility.GroupModel) {
	for i := 0; i < len(arrivals); {
		at := arrivals[i] - slotStart
		size := groups.SampleSize(p.env.rng)
		if size > len(arrivals)-i {
			size = len(arrivals) - i
		}
		p.spawnGroup(at, size)
		i += size
	}
}

// spawnGroup schedules a social group of the given size to arrive at the
// offset. Group members walk together: same movement type and path,
// correlated dwell, shared PNL entries.
func (p *population) spawnGroup(at time.Duration, size int) {
	p.env.engine.At(at, func() {
		rng, model, pos := p.env.rng, p.env.model, p.venue.Position
		s := drawStay(rng, p.venue)
		var leaderPNL pnl.List
		for i := 0; i < size; i++ {
			member := s
			var list pnl.List
			if i == 0 {
				list = model.NewList(rng, pos)
				leaderPNL = list
			} else {
				// Companions stay within ±10 % of the leader's dwell.
				member.dwell = time.Duration(float64(s.dwell) * (0.9 + 0.2*rng.Float64()))
				list = model.NewCompanionList(rng, pos, leaderPNL)
			}
			p.spawnMember(list, member)
		}
	})
}

func (p *population) spawnMember(list pnl.List, s stay) {
	env := p.env
	now := env.engine.Now()
	direct := env.rng.Float64() < env.cfg.DirectProberFraction
	cfg := env.phoneConfig(env.rng, p.macs.mac(), list, direct)
	if env.cfg.PreconnectedFraction > 0 && env.rng.Float64() < env.cfg.PreconnectedFraction {
		cfg.PreconnectedBSSID = p.legitMAC
	}
	c, err := client.New(env.engine, env.medium, env.rng, cfg)
	if err != nil {
		// Only reachable through programming errors (zero MAC); drop the
		// member rather than corrupt the run.
		return
	}
	c.SetPos(s.startPos(env.rng, p.venue))
	if err := c.Start(); err != nil {
		return
	}

	m := &member{c: c, arrived: now, departAt: now + s.dwell, direct: direct, site: p.siteIndex}
	p.members = append(p.members, m)
	if s.moving {
		walk(env.engine, c, s.path, now)
	}
	env.engine.At(m.departAt, func() { p.endDwell(m) })
}

// outcomes summarises every member after the run. engines lists the
// distinct City-Hunter engines whose reply counts should be credited (a
// roaming phone may have been served by several isolated sites).
func (p *population) outcomes(now time.Duration, engines []*core.Engine) []stats.ClientOutcome {
	out := make([]stats.ClientOutcome, 0, len(p.members))
	for _, m := range p.members {
		out = append(out, outcome(m.arrived, min(m.departAt, now), m.direct,
			m.c.Stats, m.c.UsedMACs(), p.attackers, engines))
	}
	return out
}
