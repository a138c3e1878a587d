package scenario

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"cityhunter/internal/client"
	"cityhunter/internal/core"
	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/mobility"
	"cityhunter/internal/obs"
	"cityhunter/internal/stats"
)

// FarFieldConfig enables the city-scale level-of-detail population: a
// statistical far-field tier whose pedestrians carry only arrival, route
// and RNG-stream state — no per-frame simulation, no medium registration —
// until their itinerary crosses a promotion boundary around an attacker
// site, where they become full client state machines and demote again on
// exit. A nil FarFieldConfig on the deployment keeps the classic
// venue-scale behaviour bit for bit.
type FarFieldConfig struct {
	// Pedestrians is the far-field population size (100k–1M is the design
	// envelope; the per-pedestrian cost away from every site is a route
	// sample and a handful of analytic intersections).
	Pedestrians int
	// Radius is the promotion boundary around each site; a pedestrian
	// whose route enters it becomes a full client. 0 selects 1.25× the
	// largest site radio range, so phones exist slightly before the
	// attacker can hear them.
	Radius float64
	// Stops are the city destinations pedestrians route between, weighted
	// by attractiveness (citygen venues map onto these 1:1). Empty derives
	// one district per site: centre at the site, extent 4× its radio
	// range — the district being much larger than Radius is what keeps
	// most of its visitors in the cheap tier. Spawn samples routes on
	// several goroutines at once, so a stop's Dwell model must be safe for
	// concurrent use (mobility's dwell models are plain values).
	Stops []mobility.RouteStop
	// Route is the itinerary model; the zero value selects
	// mobility.DefaultRoute.
	Route mobility.RouteModel
	// Entry is the area pedestrians enter the city from (homes, transit
	// edges). A zero rect covers the stops' bounding box padded by 1 km.
	Entry geo.Rect
	// Seed feeds the dedicated spawn stream that derives every
	// pedestrian's private RNG stream. 0 selects Base.Seed+9. Keeping this
	// stream separate from the run RNG is what leaves venue-scale goldens
	// byte-identical when far field is enabled alongside them.
	Seed int64
}

// normalized validates the config and fills the defaults described on the
// fields.
func (f FarFieldConfig) normalized(sites []Venue, maxRange float64, baseSeed int64) (FarFieldConfig, error) {
	if f.Pedestrians < 0 {
		return f, fmt.Errorf("scenario: negative far-field population %d", f.Pedestrians)
	}
	if f.Radius < 0 {
		return f, fmt.Errorf("scenario: negative promotion radius %v", f.Radius)
	}
	if f.Radius == 0 {
		f.Radius = 1.25 * maxRange
	}
	if len(f.Stops) == 0 {
		for _, v := range sites {
			r := 4 * v.RadioRange
			if r < 250 {
				r = 250
			}
			f.Stops = append(f.Stops, mobility.RouteStop{Pos: v.Position, Radius: r, Weight: 1})
		}
	}
	for i, s := range f.Stops {
		if s.Radius < 0 {
			return f, fmt.Errorf("scenario: far-field stop %d has negative radius %v", i, s.Radius)
		}
	}
	if f.Route == (mobility.RouteModel{}) {
		f.Route = mobility.DefaultRoute()
	}
	if err := f.Route.Validate(); err != nil {
		return f, fmt.Errorf("scenario: %w", err)
	}
	if f.Entry.Width() <= 0 || f.Entry.Height() <= 0 {
		min, max := f.Stops[0].Pos, f.Stops[0].Pos
		for _, s := range f.Stops {
			if s.Pos.X < min.X {
				min.X = s.Pos.X
			}
			if s.Pos.Y < min.Y {
				min.Y = s.Pos.Y
			}
			if s.Pos.X > max.X {
				max.X = s.Pos.X
			}
			if s.Pos.Y > max.Y {
				max.Y = s.Pos.Y
			}
		}
		f.Entry = geo.NewRect(min.Add(geo.Pt(-1000, -1000)), max.Add(geo.Pt(1000, 1000)))
	}
	if f.Seed == 0 {
		f.Seed = baseSeed + 9
	}
	return f, nil
}

// boundary returns the promotion radius across which pedestrians move
// between sites: zero without a far field or without pedestrians in it.
func (f *FarFieldConfig) boundary() float64 {
	if f == nil || f.Pedestrians == 0 {
		return 0
	}
	return f.Radius
}

// FarFieldSite is the per-site accounting of the far-field tier.
type FarFieldSite struct {
	// Name echoes the site's venue name.
	Name string
	// Promotions counts promotion events whose boundary belonged to this
	// site (a window merged across overlapping boundaries credits the
	// site that opened it).
	Promotions int
	// Hits counts ever-promoted pedestrians whose phone associated to
	// this site's rogue AP.
	Hits int
}

// FarFieldResult is everything the far-field tier produced in one run. It
// is reported separately from the venue populations' Outcomes/Tally so the
// knowledge-plane comparisons those feed stay undisturbed.
type FarFieldResult struct {
	// Pedestrians is the far-field population size.
	Pedestrians int
	// Promoted counts distinct pedestrians that were ever promoted.
	Promoted int
	// Promotions and Demotions count tier transitions (a pedestrian
	// crossing three boundaries counts three times).
	Promotions int
	Demotions  int
	// PeakPromoted is the largest number of simultaneously promoted
	// clients — the actual full-fidelity load the run carried.
	PeakPromoted int
	// Outcomes holds one entry per ever-promoted pedestrian (far-field
	// pedestrians that never met a boundary have, by construction, nothing
	// to report).
	Outcomes []stats.ClientOutcome
	// Tally aggregates Outcomes.
	Tally stats.Tally
	// Sites is the per-site accounting, in deployment site order.
	Sites []FarFieldSite
}

// promoWindow is one scheduled stay inside a promotion boundary, in
// absolute virtual time. site is the boundary's owner, for accounting.
type promoWindow struct {
	start, end time.Duration
	site       int
}

// pedestrian is one far-field inhabitant. Until promoted it is pure data:
// an itinerary, a private RNG stream seeded at spawn, and the precomputed
// promotion windows. The stream makes every draw the pedestrian will ever
// cause — PNL, behaviour flags, scan jitter — independent of when (and
// whether) other pedestrians promote.
type pedestrian struct {
	id    int
	mac   ieee80211.MAC
	route mobility.Route

	// rng is the private stream, built at the first promotion from seed
	// by skipping the spawnDraws values spawn took, so that pedestrians
	// that never promote (most of a city) hold no generator state, about
	// 5 KB each, for the whole run. Spawn and promotion both draw through a
	// lazySource: the same stream as rand.NewSource(seed), bit for bit, but
	// computing only the state words the draws read, so seeding costs
	// about as much as the twenty-odd draws spawn takes instead of a full
	// 607-word math/rand seed.
	rng        *rand.Rand
	seed       int64
	spawnDraws int

	cur  *client.Client   // live client while promoted
	snap *client.Snapshot // durable state between promotions

	direct     bool
	firstPromo time.Duration
	lastDemote time.Duration
	promotions int
}

// farFieldMAC derives pedestrian ID MACs from a locally administered space
// disjoint from the venue populations' allocator (second byte 0x10 vs
// 0x00), so city-wide uniqueness survives mixing both tiers.
func farFieldMAC(id int) ieee80211.MAC {
	n := uint32(id + 1)
	return ieee80211.MAC{0x02, 0x10, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

// tierManager owns the far-field tier: it spawns the statistical
// population, turns routes into promotion windows via the site grid, and
// performs the promote/demote transitions during the run. Each window's
// promote/demote runs in the group of the site that owns its boundary, so
// all tier accounting is kept per site (touched only by the owning group)
// and folded after the run.
//
// A pedestrian's consecutive windows in DIFFERENT groups hand its snapshot
// and RNG stream across without locks: boundaries in different groups are
// disjoint, so between a demote in one group and the next promote in
// another the pedestrian walks at least the boundary gap — at least one
// lookahead of virtual time, hence at least one coordinator barrier, whose
// join publishes the demote's writes.
type tierManager struct {
	envs  []*runEnv // per site: the environment of the site's group
	cfg   FarFieldConfig
	sites []*site

	grid    *geo.HashGrid
	sitePos []geo.Point

	peds []*pedestrian

	// perSite[i] is written only by site i's group during the run.
	perSite []tierSite

	mDemotions *obs.Counter // atomic; shared across groups
}

// tierSite is one site's tier accounting plus its live metric handles.
// promotedNow/peak are per-site because a run-time global count would need
// cross-group writes; the exact global peak is reconstructed after the run
// from the per-site delta logs.
type tierSite struct {
	stats        FarFieldSite
	promotedNow  int
	peakPromoted int
	demotions    int
	// deltas logs every tier transition at this site as (time, ±1); the
	// post-run merge across sites — ordered by time, site index breaking
	// ties — yields a global occupancy walk independent of how groups map
	// onto goroutines.
	deltas []tierDelta

	mPromotions *obs.Counter
	gPromoted   *obs.Gauge
	gPeak       *obs.Gauge
}

type tierDelta struct {
	at    time.Duration
	delta int
}

func newTierManager(envs []*runEnv, cfg FarFieldConfig, sites []*site) (*tierManager, error) {
	grid, err := geo.NewHashGrid(cfg.Radius)
	if err != nil {
		return nil, fmt.Errorf("scenario: far-field grid: %w", err)
	}
	tm := &tierManager{envs: envs, cfg: cfg, sites: sites, grid: grid}
	tm.perSite = make([]tierSite, len(sites))
	for i, st := range sites {
		tm.grid.Insert(int32(i), st.venue.Position)
		tm.sitePos = append(tm.sitePos, st.venue.Position)
		tm.perSite[i].stats = FarFieldSite{Name: st.venue.Name}
		if env := envs[i]; env.rt != nil {
			// Gauges are per-site series: groups setting one shared gauge
			// from several goroutines would race on who wrote last.
			labels := env.siteLabels(st.venue.Name)
			tm.perSite[i].mPromotions = env.rt.Metrics.Counter("lod_promotions", labels...)
			tm.perSite[i].gPromoted = env.rt.Metrics.Gauge("lod_promoted_now", labels...)
			tm.perSite[i].gPeak = env.rt.Metrics.Gauge("lod_promoted_peak", labels...)
			tm.mDemotions = env.rt.Metrics.Counter("lod_demotions")
		}
	}
	return tm, nil
}

// spawn creates the far-field population for one run of the given horizon
// (engine time runs 0..horizon regardless of slot; the slot only selects
// profiles) and schedules its promotion windows, each on the engine of its
// owning site's group, before the engine runs. sample builds the
// population on up to workers goroutines; scheduling then happens here, on
// the calling goroutine, in pedestrian-ID order, so every event gets the
// sequence number a serial spawn would give it. The run RNG is never
// touched.
func (tm *tierManager) spawn(horizon time.Duration, workers int) {
	for id, windows := range tm.sample(horizon, workers) {
		p := tm.peds[id]
		for _, w := range windows {
			tm.envs[w.site].engine.At(w.start, func() { tm.promote(p, w) })
			tm.envs[w.site].engine.At(w.end, func() { tm.demote(p, w.site) })
		}
	}
}

// sample fills tm.peds and returns each pedestrian's promotion windows,
// indexed by pedestrian ID. Seeds are dealt serially from the one spawn
// stream; everything else a pedestrian's spawn draws — its direct-prober
// flag, arrival, entry point and route — comes from its own seed, so the
// windows are built on up to workers goroutines, each over a contiguous
// block of IDs with its own generator, sharing the grid and site positions
// read-only. The result is the same for every worker count.
func (tm *tierManager) sample(horizon time.Duration, workers int) [][]promoWindow {
	direct := tm.envs[0].cfg.DirectProberFraction
	spawn := rand.New(rand.NewSource(tm.cfg.Seed))
	n := tm.cfg.Pedestrians
	tm.peds = make([]*pedestrian, n)
	for id := range tm.peds {
		tm.peds[id] = &pedestrian{id: id, mac: farFieldMAC(id), seed: spawn.Int63()}
	}
	windows := make([][]promoWindow, n)
	build := func(lo, hi int) {
		// One source, re-seeded per pedestrian, takes every spawn draw.
		src := new(lazySource)
		rng := rand.New(src)
		for id := lo; id < hi; id++ {
			p := tm.peds[id]
			src.Seed(p.seed)
			p.direct = rng.Float64() < direct
			arrival := time.Duration(rng.Int63n(int64(horizon)))
			entry := geo.Pt(
				tm.cfg.Entry.Min.X+rng.Float64()*tm.cfg.Entry.Width(),
				tm.cfg.Entry.Min.Y+rng.Float64()*tm.cfg.Entry.Height(),
			)
			p.route = tm.cfg.Route.Sample(rng, arrival, entry, tm.cfg.Stops)
			p.spawnDraws = src.n
			windows[id] = promoWindows(tm.grid, tm.sitePos, tm.cfg.Radius, p.route)
		}
	}
	workers = max(1, min(workers, n))
	if workers == 1 {
		build(0, n)
		return windows
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			build(lo, hi)
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
	return windows
}

// promoWindows computes a route's stays inside promotion boundaries,
// merged and in time order: per transit leg an analytic segment–disk
// intersection against every candidate site from the grid, per dwell leg a
// point-in-disk test. The grid query radius — half the leg length plus the
// promotion radius — routinely spans thousands of cells, but the grid holds
// only the sites, so AppendNeighborhood scans those few occupied cells
// instead of the box. promoWindows only reads the grid and sitePos, so the
// spawn workers call it concurrently.
func promoWindows(grid *geo.HashGrid, sitePos []geo.Point, r float64, route mobility.Route) []promoWindow {
	var raw []promoWindow
	var cand []int32
	for _, leg := range route.Legs {
		switch leg.Kind {
		case mobility.LegTransit:
			mid := leg.From.Add(leg.To.Sub(leg.From).Scale(0.5))
			cand = grid.AppendNeighborhood(cand[:0], mid, leg.From.Dist(leg.To)/2+r)
			slices.Sort(cand) // the grid returns ids in no set order
			for _, si := range cand {
				t0, t1, ok := geo.SegmentDiskCrossings(leg.From, leg.To, sitePos[si], r)
				if !ok {
					continue
				}
				span := leg.End - leg.Start
				raw = append(raw, promoWindow{
					start: leg.Start + time.Duration(t0*float64(span)),
					end:   leg.Start + time.Duration(t1*float64(span)),
					site:  int(si),
				})
			}
		case mobility.LegDwell:
			cand = grid.AppendNeighborhood(cand[:0], leg.To, r)
			slices.Sort(cand) // the grid returns ids in no set order
			for _, si := range cand {
				if leg.To.Dist(sitePos[si]) <= r {
					raw = append(raw, promoWindow{start: leg.Start, end: leg.End, site: int(si)})
					break
				}
			}
		}
	}
	if len(raw) == 0 {
		return nil
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i].start < raw[j].start })
	merged := raw[:1]
	for _, w := range raw[1:] {
		last := &merged[len(merged)-1]
		if w.start <= last.end {
			if w.end > last.end {
				last.end = w.end
			}
			continue
		}
		merged = append(merged, w)
	}
	// Zero-length windows (tangent grazes, adjacent-leg seams) promote and
	// demote at the same instant; drop them.
	out := merged[:0]
	for _, w := range merged {
		if w.end > w.start {
			out = append(out, w)
		}
	}
	return out
}

// promote raises a pedestrian to full client fidelity in the group of the
// window's site. The first promotion materialises the phone — PNL,
// behaviour flags and scan jitter all drawn from the pedestrian's private
// stream — and later ones resume the suspended snapshot, so a phone keeps
// its MAC, stats, sequence counter and unmasked-twin memory across
// boundaries.
func (tm *tierManager) promote(p *pedestrian, w promoWindow) {
	if p.cur != nil {
		return
	}
	env := tm.envs[w.site]
	now := env.engine.Now()
	pos := p.route.At(now)
	var c *client.Client
	var err error
	if p.rng == nil {
		p.rng = rand.New(replaySource(p.seed, p.spawnDraws))
	}
	if p.snap == nil {
		// The PNL is drawn at the owning site's venue position — the same
		// canonical positions the venue populations use — not the exact
		// boundary-crossing point. pnl.Model caches venue-local pools on a
		// coarse grid keyed by quantised position but computed from the
		// query point, so querying at arbitrary city coordinates would
		// poison cells that classic runs on the same shared World read
		// later, perturbing their results.
		list := env.model.NewList(p.rng, tm.sites[w.site].venue.Position)
		ccfg := env.phoneConfig(p.rng, p.mac, list, p.direct)
		c, err = client.New(env.engine, env.medium, p.rng, ccfg)
		if err == nil {
			c.SetPos(pos)
			err = c.Start()
		}
		if err == nil {
			p.firstPromo = now
		}
	} else {
		c, err = resumeClient(env, p.rng, *p.snap)
		if err == nil {
			c.SetPos(pos)
		}
	}
	if err != nil {
		// Only reachable through programming errors; drop the promotion
		// rather than corrupt the run.
		return
	}
	p.cur = c
	p.snap = nil
	p.promotions++
	s := &tm.perSite[w.site]
	s.stats.Promotions++
	s.promotedNow++
	if s.promotedNow > s.peakPromoted {
		s.peakPromoted = s.promotedNow
	}
	s.deltas = append(s.deltas, tierDelta{at: now, delta: 1})
	if env.rt != nil {
		s.mPromotions.Inc()
		s.gPromoted.Set(float64(s.promotedNow))
		s.gPeak.SetMax(float64(s.peakPromoted))
		env.rt.Event(now, obs.EventPromotion, p.mac.String(),
			"promoted near "+tm.sites[w.site].venue.Name)
	}
	walk(env.engine, c, &p.route, 0)
}

// demote suspends a promoted client back to the statistical tier, in the
// group that owns the boundary being exited.
func (tm *tierManager) demote(p *pedestrian, siteIdx int) {
	if p.cur == nil {
		return
	}
	env := tm.envs[siteIdx]
	snap, err := p.cur.Suspend()
	p.cur = nil
	if err == nil {
		p.snap = &snap
	}
	p.lastDemote = env.engine.Now()
	s := &tm.perSite[siteIdx]
	s.demotions++
	s.promotedNow--
	s.deltas = append(s.deltas, tierDelta{at: p.lastDemote, delta: -1})
	if env.rt != nil {
		tm.mDemotions.Inc()
		s.gPromoted.Set(float64(s.promotedNow))
		env.rt.Event(p.lastDemote, obs.EventDemotion, p.mac.String(),
			"suspended to far-field tier")
	}
}

// result folds the per-site accounting into the FarFieldResult. The global
// peak is the maximum of the occupancy walk over all deltas merged by
// (time, site) — an ordering the run itself never depends on. Clients
// still promoted at the horizon are read live; everyone else from their
// last snapshot.
func (tm *tierManager) result(now time.Duration, engines []*core.Engine) *FarFieldResult {
	res := &FarFieldResult{Pedestrians: len(tm.peds)}
	var deltas []tierDelta
	for i := range tm.perSite {
		s := &tm.perSite[i]
		res.Promotions += s.stats.Promotions
		res.Demotions += s.demotions
		res.Sites = append(res.Sites, s.stats)
		deltas = append(deltas, s.deltas...)
	}
	sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].at < deltas[j].at })
	occupancy := 0
	for _, d := range deltas {
		occupancy += d.delta
		res.PeakPromoted = max(res.PeakPromoted, occupancy)
	}
	siteByMAC := make(map[ieee80211.MAC]int, len(tm.sites))
	for i, st := range tm.sites {
		siteByMAC[st.id.attackerMAC] = i
	}
	attackers := attackerSet(tm.sites)
	for _, p := range tm.peds {
		var st client.Stats
		var macs []ieee80211.MAC
		switch {
		case p.cur != nil:
			st = p.cur.Stats
			macs = p.cur.UsedMACs()
			p.lastDemote = now
		case p.snap != nil:
			st = p.snap.Stats
			macs = snapshotMACs(p.snap)
		default:
			continue // never promoted: nothing on air, nothing to report
		}
		res.Promoted++
		o := outcome(p.firstPromo, p.lastDemote, p.direct, st, macs, attackers, engines)
		if o.Connected {
			if si, ok := siteByMAC[st.ConnectedTo]; ok {
				res.Sites[si].Hits++
			}
		}
		res.Outcomes = append(res.Outcomes, o)
	}
	res.Tally = stats.NewTally(res.Outcomes)
	return res
}
