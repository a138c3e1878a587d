package scenario

import (
	"context"
	"fmt"
	"time"

	"cityhunter/internal/client"
	"cityhunter/internal/geo"
	"cityhunter/internal/mobility"
	"cityhunter/internal/obs"
	"cityhunter/internal/sim"
	"cityhunter/internal/stats"
)

// KnowledgePlane selects how a deployment's sites share the City-Hunter
// database — the paper runs each venue in isolation; a city-scale hunter
// can do better because phones roam between its sites.
type KnowledgePlane int

// Knowledge planes.
const (
	// Isolated gives every site its own database, seeded independently —
	// N copies of the paper's single-venue deployment.
	Isolated KnowledgePlane = iota
	// PeriodicSync keeps per-site databases but exchanges hit records
	// every SyncEvery: each site absorbs the SSIDs that captured phones
	// elsewhere, without per-client state.
	PeriodicSync
	// Shared runs one core database (and one per-client rotation state)
	// behind all sites: a phone that exhausted site A's top replies gets
	// the NEXT untried batch at site B instead of the same head again.
	Shared
)

// String implements fmt.Stringer.
func (k KnowledgePlane) String() string {
	switch k {
	case Isolated:
		return "isolated"
	case PeriodicSync:
		return "periodic-sync"
	case Shared:
		return "shared"
	default:
		return fmt.Sprintf("knowledge(%d)", int(k))
	}
}

// MaxSites bounds a deployment; site MACs embed the index in one byte.
const MaxSites = 250

// DeploymentConfig describes a city-scale deployment: several attacker
// sites, phones that roam between them, and a knowledge plane joining (or
// not joining) the sites' databases.
type DeploymentConfig struct {
	// Base carries everything a single-venue Config does except the
	// venue: city, heat map, attack kind, population knobs, seed.
	// Base.Venue is ignored; Sites replaces it.
	Base Config
	// Sites are the attacker deployments (1..MaxSites venues).
	Sites []Venue
	// Knowledge selects how the sites share the City-Hunter database.
	// KARMA/MANA/Known-Beacons attackers have no shareable database and
	// degrade to Isolated behaviour under every plane.
	Knowledge KnowledgePlane
	// SyncEvery is the PeriodicSync exchange period; 0 means one minute.
	SyncEvery time.Duration
	// RoamFraction is the probability that a phone finishing its dwell
	// walks to another site instead of leaving the city.
	RoamFraction float64
	// Transit models the inter-site walk; the zero value selects
	// mobility.DefaultTransit.
	Transit mobility.TransitModel
	// FarField, when non-nil, adds the city-scale level-of-detail
	// population: cheap statistical pedestrians promoted to full clients
	// only inside the promotion boundary around each site. nil keeps the
	// classic venue-scale behaviour byte for byte.
	FarField *FarFieldConfig
	// Partitions sets how many goroutines run the deployment's site
	// groups (see DESIGN §5.13). It changes wall time only: results are
	// identical at every value and every GOMAXPROCS. 0 and 1 run every
	// group on one goroutine, AutoPartitions runs one goroutine per group,
	// and a larger count is clamped to the group count.
	Partitions int
}

// AutoPartitions asks for one goroutine per site group.
const AutoPartitions = -1

// DeploymentResult is everything a deployment run produces.
type DeploymentResult struct {
	// Sites holds one per-site Result, in DeploymentConfig.Sites order.
	// Site results count a roaming phone under the site it first arrived
	// at; its SSIDsSent credit spans every engine that served it.
	Sites []*Result
	// Outcomes pools every phone across sites.
	Outcomes []stats.ClientOutcome
	// Tally aggregates the pooled outcomes (its HitBroadcast is the
	// pooled h_b the knowledge planes are compared on).
	Tally stats.Tally
	// Knowledge echoes the configured plane.
	Knowledge KnowledgePlane
	// Roams counts completed inter-site transits.
	Roams int
	// Duration is the simulated virtual time (shorter than requested
	// only when the run was cancelled).
	Duration time.Duration
	// FarField is the level-of-detail tier's accounting (nil unless the
	// deployment configured one). It is kept out of Outcomes/Tally so the
	// knowledge-plane comparisons those feed stay undisturbed.
	FarField *FarFieldResult
	// Metrics, Journal and Spans are the deployment-wide observability
	// attachments: one registry, and the site groups' journals and traces
	// merged after the run.
	Metrics obs.Snapshot
	Journal *obs.Journal
	Spans   *obs.Trace
}

// deployment is the roaming coordinator: the site-group layout plus every
// per-site handle the transit closures need.
type deployment struct {
	coord   *sim.Partitioned
	groupOf []int     // site index → group index
	envs    []*runEnv // one per group
	sites   []*site
	pops    []*population

	transit      mobility.TransitModel
	roamFraction float64
	// siteRoams counts completed transits by DESTINATION site, each
	// incremented only by the group that owns it.
	siteRoams []int
}

// env returns the environment of the group that owns site i.
func (d *deployment) env(i int) *runEnv { return d.envs[d.groupOf[i]] }

// partOf maps a group onto the goroutine that runs it.
func (d *deployment) partOf(group int) int { return group % d.coord.Parts() }

// RunDeploymentContext composes the run layers — world build, knowledge,
// site deployment, population, collection — across N sites, with the two
// things only a city has: phones roaming between venues, and a knowledge
// plane joining the hunters' databases. It is the only run path: RunContext
// is a one-site deployment.
//
// Sites run in site groups (see siteGroups), each with its own engine
// share, radio medium, RNG stream and MAC block, on a sim.Partitioned
// coordinator.
//
// Cancellation mirrors RunContext: a mid-run cancel returns the partial
// DeploymentResult together with a non-nil error wrapping ctx.Err(). Its
// Duration is the earliest partition engine clock, which every group has
// simulated at least as far.
func RunDeploymentContext(ctx context.Context, dcfg DeploymentConfig, slot int, duration time.Duration) (*DeploymentResult, error) {
	res, _, err := runDeployment(ctx, dcfg, slot, duration)
	return res, err
}

// runDeployment is RunDeploymentContext, also returning the coordinator
// that ran it (nil when the configuration was refused) so tests can audit
// its lookahead contract.
func runDeployment(ctx context.Context, dcfg DeploymentConfig, slot int, duration time.Duration) (*DeploymentResult, *sim.Partitioned, error) {
	cfg := dcfg.Base
	if cfg.City == nil || cfg.HeatMap == nil {
		return nil, nil, fmt.Errorf("scenario: city and heat map are required")
	}
	if err := dcfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	radioRange := 0.0
	for _, v := range dcfg.Sites {
		if slot < 0 || slot >= v.Profile.Slots() {
			return nil, nil, fmt.Errorf("scenario: slot %d outside site %q profile (0..%d)", slot, v.Name, v.Profile.Slots()-1)
		}
		radioRange = max(radioRange, v.RadioRange)
	}
	if duration <= 0 {
		return nil, nil, fmt.Errorf("scenario: non-positive duration %v", duration)
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, nil, err
	}
	cfg.Venue = Venue{} // sites replace it; nothing below may consult it
	transit := dcfg.Transit
	if transit == (mobility.TransitModel{}) {
		transit = mobility.DefaultTransit()
	}
	syncEvery := dcfg.SyncEvery
	if syncEvery <= 0 {
		syncEvery = time.Minute
	}
	var ff *FarFieldConfig
	if dcfg.FarField != nil {
		f, err := dcfg.FarField.normalized(dcfg.Sites, radioRange, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		ff = &f
	}

	// KARMA keeps no database (Known Beacons runs its strategy), so a
	// Shared plane has nothing to share and must not join their sites.
	knowledge := dcfg.Knowledge
	if knowledge == Shared && (cfg.Attack == KARMA || cfg.Attack == KnownBeacons) {
		knowledge = Isolated
	}
	groupOf, ngroups := siteGroups(dcfg.Sites, knowledge, ff)
	coord, err := sim.NewPartitioned(partitionCount(dcfg.Partitions, ngroups),
		groupLookahead(dcfg.Sites, groupOf, transit, ff, duration))
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	model, err := cfg.pnlModel()
	if err != nil {
		return nil, nil, err
	}

	// Environment layer: one per site group, on the goroutine the group
	// maps to, with a medium shard as wide as the group's widest site. All
	// groups share one registry (counters are atomic; gauges written from
	// several groups carry a site label).
	var reg *obs.Registry
	if cfg.Metrics || cfg.Publisher != nil {
		reg = obs.NewRegistry()
	}
	groupRange := make([]float64, ngroups)
	for i, v := range dcfg.Sites {
		groupRange[groupOf[i]] = max(groupRange[groupOf[i]], v.RadioRange)
	}
	d := &deployment{
		coord: coord, groupOf: groupOf, envs: make([]*runEnv, ngroups),
		transit: transit, roamFraction: dcfg.RoamFraction,
		siteRoams: make([]int, len(dcfg.Sites)),
	}
	for g := range d.envs {
		d.envs[g] = newEnv(cfg, coord.Part(d.partOf(g)), groupRange[g], cfg.Seed+1000*int64(g), reg, model)
		d.envs[g].labelSites = len(dcfg.Sites) > 1
	}
	for p := 0; p < coord.Parts(); p++ {
		coord.Part(p).Instrument(d.envs[0].rt)
	}

	// Knowledge layer: one strategy set per site, or one for all (a Shared
	// plane puts every site in group 0).
	sets := make([]strategySet, len(dcfg.Sites))
	if knowledge == Shared {
		positions := make([]geo.Point, len(dcfg.Sites))
		for i, v := range dcfg.Sites {
			positions[i] = v.Position
		}
		shared, err := buildStrategy(cfg, positions, cfg.Seed+1)
		if err != nil {
			return nil, nil, err
		}
		if shared.chEngine != nil {
			shared.chEngine.Instrument(d.envs[0].rt)
		}
		for i := range sets {
			sets[i] = shared
		}
	} else {
		for i, v := range dcfg.Sites {
			// Per-site seeds stay distinct (and site 0 keeps the classic
			// cfg.Seed+1) so isolated sites don't sample identical ghosts.
			set, err := buildStrategy(cfg, []geo.Point{v.Position}, cfg.Seed+1+1000*int64(i))
			if err != nil {
				return nil, nil, err
			}
			if set.chEngine != nil {
				set.chEngine.Instrument(d.env(i).rt, d.env(i).siteLabels(v.Name)...)
			}
			sets[i] = set
		}
	}

	// Site-deployment layer.
	d.sites = make([]*site, len(dcfg.Sites))
	groupSites := make([][]*site, ngroups)
	for i, v := range dcfg.Sites {
		d.sites[i], err = deploySite(d.env(i), v, deploymentSiteIdentity(i), sets[i])
		if err != nil {
			return nil, nil, err
		}
		groupSites[groupOf[i]] = append(groupSites[groupOf[i]], d.sites[i])
	}
	feed := startFeed(d.envs[0].rt, cfg, dcfg.Knowledge, slot, d.sites)
	if feed != nil {
		for _, env := range d.envs {
			feed.buffer(env.rt)
		}
		coord.GlobalEvery(0, feed.every, feed.tick)
	}
	for g, env := range d.envs {
		scheduleSampling(env, groupSites[g])
	}
	if dcfg.Knowledge == PeriodicSync {
		armKnowledgeSync(coord, d.sites, syncEvery)
	}

	// Population layer: one population per site over its group's RNG
	// stream and MAC allocator, with dwell endings routed through the
	// roaming coordinator.
	macs := make([]*macAllocator, ngroups)
	for g := range macs {
		macs[g] = &macAllocator{} // group 0 keeps the classic block
		if g > 0 {
			macs[g].space = siteMACSpace(g)
		}
	}
	attackers := attackerSet(d.sites)
	slotStart := time.Duration(slot) * time.Hour
	d.pops = make([]*population, len(dcfg.Sites))
	for i, v := range dcfg.Sites {
		env := d.env(i)
		arrivals, err := mobility.Arrivals(env.rng, scaledProfile(v.Profile, cfg.ArrivalScale), slotStart, duration)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: site %q: %w", v.Name, err)
		}
		pop := &population{env: env, venue: v, siteIndex: i, legitMAC: d.sites[i].id.legitMAC,
			attackers: attackers, endDwell: d.endDwell, macs: macs[groupOf[i]]}
		d.pops[i] = pop
		pop.spawnArrivals(arrivals, slotStart, v.Groups(slot))
	}

	// Level-of-detail layer: the far-field tier spawns after the venue
	// populations and draws only from its own spawn-derived streams, so
	// every venue draw keeps its order. It builds routes and windows on as
	// many workers as the coordinator has partitions.
	var tiers *tierManager
	if ff != nil {
		siteEnvs := make([]*runEnv, len(dcfg.Sites))
		for i := range siteEnvs {
			siteEnvs[i] = d.env(i)
		}
		tiers = newTierManager(siteEnvs, *ff, d.sites)
		tiers.spawn(duration, coord.Parts())
	}

	_, runErr := coord.RunContext(ctx, duration)

	// Collection layer — single-threaded again; every partition goroutine
	// was joined before RunContext returned.
	simulated := duration
	if runErr != nil {
		simulated = d.reached()
	}
	engines := uniqueEngines(d.sites)
	dres := &DeploymentResult{Knowledge: dcfg.Knowledge, Duration: simulated}
	for i, st := range d.sites {
		dres.Roams += d.siteRoams[i]
		res := assembleResult(cfg, st, d.pops[i], slot, simulated, engines)
		dres.Sites = append(dres.Sites, res)
		dres.Outcomes = append(dres.Outcomes, res.Outcomes...)
	}
	dres.Tally = stats.NewTally(dres.Outcomes)
	if tiers != nil {
		dres.FarField = tiers.result(simulated, engines)
		if reg != nil {
			f := dres.FarField
			reg.Counter("scenario_farfield_pedestrians").Add(int64(f.Pedestrians))
			reg.Counter("scenario_farfield_promotions").Add(int64(f.Promotions))
			reg.Counter("scenario_farfield_demotions").Add(int64(f.Demotions))
			reg.Gauge("scenario_farfield_peak_promoted").Set(float64(f.PeakPromoted))
		}
	}
	if d.envs[0].rt != nil {
		for i, res := range dres.Sites {
			d.emitRunTelemetry(reg, simulated, d.pops[i], res)
		}
		journals := make([]*obs.Journal, len(d.envs))
		spans := d.envs[0].rt.Trace
		for g, env := range d.envs {
			journals[g] = env.rt.Journal
			if g > 0 {
				spans.Append(env.rt.Trace)
			}
		}
		dres.Metrics = reg.Snapshot()
		dres.Journal = obs.MergeJournals(cfg.FlightRecorderCap, journals...)
		dres.Spans = spans
		// Every site result carries the deployment-wide attachments.
		for _, res := range dres.Sites {
			res.Metrics, res.Journal, res.Spans = dres.Metrics, dres.Journal, dres.Spans
		}
	}
	feed.finish(simulated, runErr)
	if runErr != nil {
		return dres, coord, fmt.Errorf("scenario: run cancelled after %v of %v: %w",
			simulated, duration, runErr)
	}
	return dres, coord, nil
}

// reached is how much virtual time a cancelled run covers: the earliest
// partition engine clock. Every group has simulated at least that far —
// the coordinator clock, the last completed barrier, can lag it by a
// whole window, and a one-group run is a single window.
func (d *deployment) reached() time.Duration {
	reached := d.coord.Part(0).Now()
	for p := 1; p < d.coord.Parts(); p++ {
		reached = min(reached, d.coord.Part(p).Now())
	}
	return reached
}

// armKnowledgeSync arms the PeriodicSync exchange as a coordinator global
// event: every period, at an exact window barrier where every group's
// clock reads the sync time and none is running, each engine absorbs the
// hit records the others gained since the last sync. Absorbed records
// raise the SSID's weight and hit history at the receiving site without
// fabricating per-client state there, and land in deterministic site
// order with no locks.
func armKnowledgeSync(coord *sim.Partitioned, sites []*site, every time.Duration) {
	engines := uniqueEngines(sites)
	if len(engines) < 2 {
		return
	}
	consumed := make([]int, len(engines))
	coord.GlobalEvery(every, every, func() {
		now := coord.Now()
		for i, src := range engines {
			hits := src.Hits()
			for _, h := range hits[consumed[i]:] {
				for j, dst := range engines {
					if j != i {
						dst.AbsorbHit(now, h.SSID)
					}
				}
			}
			consumed[i] = len(hits)
		}
	})
}

// endDwell decides what a phone does when its dwell expires: with
// probability RoamFraction it walks to another site — keeping its PNL,
// scan state, MAC, and whatever the knowledge plane remembers about it —
// otherwise it leaves the city. It draws from the group that owns the
// phone's current site.
func (d *deployment) endDwell(m *member) {
	if m.c.State() == client.StateDeparted {
		return
	}
	rng := d.env(m.site).rng
	if len(d.sites) < 2 || rng.Float64() >= d.roamFraction {
		m.c.Depart()
		return
	}
	// Uniform choice among the other sites.
	target := rng.Intn(len(d.sites) - 1)
	if target >= m.site {
		target++
	}
	d.startTransit(m, target)
}

// startTransit walks the phone to a drawn entry point at the target site.
// The walk is radio-silent: the phone suspends at departure and resumes —
// same MAC, PNL, stats, sequence counter, unmasked twins — on arrival.
// Within a group the arrival is an ordinary engine event; across groups it
// is a coordinator message, due at least one lookahead later because every
// walk crosses at least the RF gap between the two groups.
func (d *deployment) startTransit(m *member, target int) {
	src := m.site
	env := d.env(src)
	dest := d.sites[target].venue
	entry := mobility.StaticPos(env.rng, dest.Position, dest.RadioRange*0.9)
	path := d.transit.Path(env.rng, m.c.Pos(), entry)
	snap, err := m.c.Suspend()
	if err != nil {
		return
	}
	arriveAt := env.engine.Now() + path.Duration
	arrive := func() { d.arrive(m, target, snap) }
	if gs, gt := d.groupOf[src], d.groupOf[target]; gs == gt {
		env.engine.At(arriveAt, arrive)
	} else {
		d.coord.Post(d.partOf(gs), src, arriveAt, d.partOf(gt), arrive)
	}
}

// arrive resumes the phone at the target site and starts a fresh stay
// there, drawn from that venue's own dwell and movement models.
func (d *deployment) arrive(m *member, target int, snap client.Snapshot) {
	pop := d.pops[target]
	env := pop.env
	c, err := resumeClient(env, env.rng, snap)
	if err != nil {
		return
	}
	m.c = c
	d.siteRoams[target]++
	m.roams++
	m.site = target
	now := env.engine.Now()
	s := drawStay(env.rng, pop.venue)
	m.departAt = now + s.dwell
	c.SetPos(s.startPos(env.rng, pop.venue))
	if s.moving {
		walk(env.engine, c, s.path, now)
	}
	env.engine.At(m.departAt, func() { d.endDwell(m) })
}
