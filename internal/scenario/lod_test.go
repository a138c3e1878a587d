package scenario

import (
	"context"
	"reflect"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/mobility"
)

// farFieldConfig routes a small far-field population straight through the
// deployment's first site: one district centred on the attacker, tight
// enough that every dwell falls inside the promotion boundary.
func farFieldConfig(d DeploymentConfig, pedestrians int) *FarFieldConfig {
	site := d.Sites[0]
	return &FarFieldConfig{
		Pedestrians: pedestrians,
		Stops: []mobility.RouteStop{
			{Pos: site.Position, Radius: 30, Weight: 1},
			{Pos: site.Position.Add(geo.Pt(900, 0)), Radius: 100, Weight: 1},
		},
		Entry: geo.NewRect(site.Position.Add(geo.Pt(-600, -600)), site.Position.Add(geo.Pt(-400, -400))),
	}
}

func TestFarFieldValidation(t *testing.T) {
	good := deployConfig(t, CityHunter, 21)
	good.FarField = farFieldConfig(good, 10)
	if _, err := RunDeploymentContext(context.Background(), good, 0, time.Minute); err != nil {
		t.Fatalf("valid far-field config rejected: %v", err)
	}

	bad := good
	bad.FarField = &FarFieldConfig{Pedestrians: -1}
	if _, err := RunDeploymentContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("negative population accepted")
	}
	bad = good
	bad.FarField = &FarFieldConfig{Pedestrians: 1, Radius: -5}
	if _, err := RunDeploymentContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("negative promotion radius accepted")
	}
	bad = good
	bad.FarField = &FarFieldConfig{
		Pedestrians: 1,
		Route:       mobility.RouteModel{Transit: mobility.TransitModel{SpeedMin: 2, SpeedMax: 1}},
	}
	if _, err := RunDeploymentContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("invalid route model accepted")
	}
}

func TestFarFieldPromotionLifecycle(t *testing.T) {
	d := deployConfig(t, CityHunter, 22)
	d.FarField = farFieldConfig(d, 40)
	res, err := RunDeploymentContext(context.Background(), d, 0, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ff := res.FarField
	if ff == nil {
		t.Fatal("no far-field result")
	}
	if ff.Pedestrians != 40 {
		t.Errorf("pedestrians = %d, want 40", ff.Pedestrians)
	}
	// The first district sits inside the promotion boundary, so pedestrians
	// whose itineraries started within the half-hour promoted.
	if ff.Promoted == 0 {
		t.Fatal("no pedestrian was ever promoted")
	}
	if ff.Promotions < ff.Promoted {
		t.Errorf("promotions %d below distinct promoted %d", ff.Promotions, ff.Promoted)
	}
	if ff.Demotions > ff.Promotions {
		t.Errorf("demotions %d exceed promotions %d", ff.Demotions, ff.Promotions)
	}
	if ff.PeakPromoted < 1 {
		t.Errorf("peak promoted = %d, want >= 1", ff.PeakPromoted)
	}
	if len(ff.Outcomes) != ff.Promoted {
		t.Errorf("%d outcomes for %d promoted pedestrians", len(ff.Outcomes), ff.Promoted)
	}
	probed := 0
	for _, o := range ff.Outcomes {
		if o.Probed {
			probed++
		}
	}
	if probed == 0 {
		t.Error("no promoted pedestrian ever probed")
	}
	if len(ff.Sites) != len(d.Sites) {
		t.Fatalf("%d site entries for %d sites", len(ff.Sites), len(d.Sites))
	}
	if ff.Sites[0].Promotions == 0 {
		t.Error("site 0 owns the district but recorded no promotions")
	}
	total := 0
	for _, s := range ff.Sites {
		total += s.Promotions
	}
	if total != ff.Promotions {
		t.Errorf("per-site promotions sum to %d, total %d", total, ff.Promotions)
	}
}

// TestFarFieldDeterminism is the two-runs-identical-aggregates check: the
// far-field tier must be a pure function of its seed.
func TestFarFieldDeterminism(t *testing.T) {
	run := func() *FarFieldResult {
		d := deployConfig(t, CityHunter, 23)
		d.FarField = farFieldConfig(d, 60)
		res, err := RunDeploymentContext(context.Background(), d, 0, 20*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res.FarField
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("far-field results differ between identical runs:\n%+v\n%+v", a, b)
	}
}

// TestFarFieldAwayFromSitesLeavesVenuesUntouched is the RNG-stream
// preservation proof at test scale: a far-field population whose routes
// never cross a promotion boundary must leave the venue populations'
// results bit-for-bit identical to a run with no far field at all.
func TestFarFieldAwayFromSitesLeavesVenuesUntouched(t *testing.T) {
	run := func(ff *FarFieldConfig) *DeploymentResult {
		d := deployConfig(t, CityHunter, 24)
		d.FarField = ff
		res, err := RunDeploymentContext(context.Background(), d, 0, 10*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	remote := &FarFieldConfig{
		Pedestrians: 500,
		// District and entry live kilometres from every site: windows are
		// empty, nothing ever promotes, nothing touches the medium.
		Stops: []mobility.RouteStop{{Pos: geo.Pt(-20000, -20000), Radius: 300, Weight: 1}},
		Entry: geo.NewRect(geo.Pt(-21000, -21000), geo.Pt(-20500, -20500)),
	}
	lod := run(remote)
	if lod.FarField == nil || lod.FarField.Promoted != 0 {
		t.Fatalf("remote far field promoted %v pedestrians, want 0", lod.FarField)
	}
	if !reflect.DeepEqual(base.Outcomes, lod.Outcomes) {
		t.Error("venue outcomes perturbed by a far field that never promoted")
	}
	if !reflect.DeepEqual(base.Tally, lod.Tally) {
		t.Errorf("venue tally perturbed: %+v vs %+v", base.Tally, lod.Tally)
	}
	for i := range base.Sites {
		if !reflect.DeepEqual(base.Sites[i].Outcomes, lod.Sites[i].Outcomes) {
			t.Errorf("site %d outcomes perturbed", i)
		}
	}
	// Zero pedestrians is an exact no-op too.
	zero := run(&FarFieldConfig{})
	if !reflect.DeepEqual(base.Outcomes, zero.Outcomes) {
		t.Error("zero-pedestrian far field perturbed venue outcomes")
	}
}

// TestFarFieldWindows unit-tests the promotion scheduler's geometry: a
// transit leg clipping a boundary opens a window strictly inside the leg,
// a dwell inside a boundary spans the whole leg, and overlaps merge.
func TestFarFieldWindows(t *testing.T) {
	sitePos := []geo.Point{geo.Pt(500, 0), geo.Pt(560, 0)}
	windows := func(route mobility.Route) []promoWindow { return promoWindows(sitePos, 100, route) }

	// Leg 1: walk 0→1000 along y=0 between minutes 0 and 10, crossing both
	// boundaries; their windows overlap and must merge into one.
	// Leg 2: dwell at (505, 0) — inside site 0's boundary — minutes 10–20.
	route := mobility.Route{Legs: []mobility.RouteLeg{
		{Kind: mobility.LegTransit, From: geo.Pt(0, 0), To: geo.Pt(1000, 0),
			Start: 0, End: 10 * time.Minute, Stop: -1},
		{Kind: mobility.LegDwell, From: geo.Pt(505, 0), To: geo.Pt(505, 0),
			Start: 10 * time.Minute, End: 20 * time.Minute, Stop: 0},
	}}
	ws := windows(route)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2 (merged transit + dwell): %+v", len(ws), ws)
	}
	// Transit window: site 0's disk spans x ∈ [400, 660] with site 1's —
	// 4 to 6.6 minutes at 100 m/min.
	w := ws[0]
	if w.start != 4*time.Minute || w.end != 396*time.Second {
		t.Errorf("merged transit window [%v, %v], want [4m, 6m36s]", w.start, w.end)
	}
	if w.site != 0 {
		t.Errorf("merged window credited site %d, want 0 (the opener)", w.site)
	}
	if ws[1].start != 10*time.Minute || ws[1].end != 20*time.Minute {
		t.Errorf("dwell window [%v, %v], want the full leg", ws[1].start, ws[1].end)
	}

	// A route that never approaches a site yields no windows.
	far := mobility.Route{Legs: []mobility.RouteLeg{
		{Kind: mobility.LegTransit, From: geo.Pt(0, 5000), To: geo.Pt(1000, 5000),
			Start: 0, End: 10 * time.Minute, Stop: -1},
	}}
	if ws := windows(far); len(ws) != 0 {
		t.Errorf("distant route produced windows: %+v", ws)
	}
}

// TestFarFieldChurn promotes and demotes the same pedestrians repeatedly —
// a route bouncing between an in-boundary district and an out-of-boundary
// one — and checks the transition accounting stays balanced.
func TestFarFieldChurn(t *testing.T) {
	d := deployConfig(t, CityHunter, 25)
	site := d.Sites[0]
	d.FarField = &FarFieldConfig{
		Pedestrians: 30,
		Stops: []mobility.RouteStop{
			{Pos: site.Position, Radius: 25, Weight: 1},
			{Pos: site.Position.Add(geo.Pt(700, 0)), Radius: 50, Weight: 1},
		},
		Route: mobility.RouteModel{MeanVisits: 4, MaxVisits: 6},
		Entry: geo.NewRect(site.Position.Add(geo.Pt(-400, -400)), site.Position.Add(geo.Pt(-300, -300))),
	}
	res, err := RunDeploymentContext(context.Background(), d, 0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ff := res.FarField
	if ff.Promotions <= ff.Promoted {
		t.Errorf("promotions %d vs %d distinct pedestrians: churn never re-promoted anyone",
			ff.Promotions, ff.Promoted)
	}
	if ff.Demotions > ff.Promotions {
		t.Errorf("demotions %d exceed promotions %d", ff.Demotions, ff.Promotions)
	}
	if ff.Promotions-ff.Demotions > ff.Promoted {
		t.Errorf("%d pedestrians stuck promoted, only %d exist",
			ff.Promotions-ff.Demotions, ff.Promoted)
	}
}

// TestFarFieldSpawnWorkers pins the parallel far-field spawn to the serial
// one: on the city-scale trio, sampling the population on 1, 2, 3 and 8
// workers deals every pedestrian the same seed, spawn draws, direct-prober
// flag, route and promotion windows, and whole runs at those partition
// counts (8 is clamped to the group count) report the same far field.
func TestFarFieldSpawnWorkers(t *testing.T) {
	const pedestrians = 2400
	const horizon = 12 * time.Minute
	d := partitionedTrio(t, 31)
	d.FarField = trioFarField(d, pedestrians)

	sample := func(workers int) (*tierManager, [][]promoWindow) {
		cfg, err := d.Base.normalized()
		if err != nil {
			t.Fatal(err)
		}
		radioRange := 0.0
		envs := make([]*runEnv, len(d.Sites))
		sites := make([]*site, len(d.Sites))
		for i, v := range d.Sites {
			radioRange = max(radioRange, v.RadioRange)
			envs[i] = &runEnv{cfg: cfg}
			sites[i] = &site{venue: v}
		}
		ff, err := d.FarField.normalized(d.Sites, radioRange, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		tm := newTierManager(envs, ff, sites)
		return tm, tm.sample(horizon, workers)
	}
	ref, refWindows := sample(1)
	if len(ref.peds) != pedestrians {
		t.Fatalf("sampled %d pedestrians, want %d", len(ref.peds), pedestrians)
	}
	crossers := 0
	for _, ws := range refWindows {
		if len(ws) > 1 {
			crossers++
		}
	}
	if crossers == 0 {
		t.Fatal("no pedestrian crosses two boundaries; the test exercises nothing")
	}
	for _, workers := range []int{2, 3, 8} {
		tm, windows := sample(workers)
		for id, want := range ref.peds {
			got := tm.peds[id]
			if got.id != want.id || got.mac != want.mac || got.seed != want.seed ||
				got.spawnDraws != want.spawnDraws || got.direct != want.direct {
				t.Fatalf("workers=%d pedestrian %d: got %+v, want %+v", workers, id, *got, *want)
			}
			if !reflect.DeepEqual(got.route, want.route) {
				t.Fatalf("workers=%d pedestrian %d: routes diverge", workers, id)
			}
			if !reflect.DeepEqual(windows[id], refWindows[id]) {
				t.Fatalf("workers=%d pedestrian %d: windows %+v, want %+v",
					workers, id, windows[id], refWindows[id])
			}
		}
	}

	var refRes *FarFieldResult
	for _, partitions := range []int{1, 2, 3, 8} {
		d.Partitions = partitions
		res, coord, err := runDeployment(context.Background(), d, 0, horizon)
		if err != nil {
			t.Fatalf("partitions=%d: %v", partitions, err)
		}
		if want := min(partitions, 3); coord.Parts() != want {
			t.Errorf("partitions=%d ran %d partitions, want %d", partitions, coord.Parts(), want)
		}
		if refRes == nil {
			refRes = res.FarField
			if refRes.Promotions == 0 {
				t.Fatal("reference run never promoted anyone")
			}
			continue
		}
		if !reflect.DeepEqual(res.FarField, refRes) {
			t.Errorf("partitions=%d: far-field result diverges: %+v vs %+v",
				partitions, *res.FarField, *refRes)
		}
	}
}
