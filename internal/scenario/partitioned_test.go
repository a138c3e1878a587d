package scenario

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/mobility"
)

// partitionedTrio is the 3-site deployment the determinism matrix runs:
// pairwise RF gaps well above zero, so each site is a group of its own.
func partitionedTrio(t *testing.T, seed int64) DeploymentConfig {
	t.Helper()
	d := deployConfig(t, CityHunter, seed)
	third := MallVenue()
	third.Position = d.Sites[0].Position.Add(geo.Pt(200, 400))
	d.Sites = append(d.Sites, third)
	d.RoamFraction = 0.5
	d.Knowledge = PeriodicSync
	return d
}

// trioFarField routes far-field pedestrians between the first and third
// sites' districts, so itineraries cross MULTIPLE promotion boundaries and
// the level-of-detail handoff carries snapshots across site groups.
func trioFarField(d DeploymentConfig, pedestrians int) *FarFieldConfig {
	return &FarFieldConfig{
		Pedestrians: pedestrians,
		Stops: []mobility.RouteStop{
			{Pos: d.Sites[0].Position, Radius: 30, Weight: 1},
			{Pos: d.Sites[2].Position, Radius: 30, Weight: 1},
			{Pos: d.Sites[0].Position.Add(geo.Pt(-900, 0)), Radius: 100, Weight: 1},
		},
		Entry: geo.NewRect(d.Sites[0].Position.Add(geo.Pt(-600, -600)),
			d.Sites[0].Position.Add(geo.Pt(-400, -400))),
	}
}

// comparePartitioned asserts two deployment runs produced identical
// results, field family by field family so a divergence names itself.
func comparePartitioned(t *testing.T, label string, ref, got *DeploymentResult) {
	t.Helper()
	if !reflect.DeepEqual(ref.Outcomes, got.Outcomes) {
		t.Errorf("%s: pooled outcomes diverge", label)
	}
	if ref.Tally != got.Tally || ref.Roams != got.Roams {
		t.Errorf("%s: tally/roams diverge: %+v/%d vs %+v/%d",
			label, ref.Tally, ref.Roams, got.Tally, got.Roams)
	}
	for s := range ref.Sites {
		if ref.Sites[s].Tally != got.Sites[s].Tally {
			t.Errorf("%s site %d: tallies diverge", label, s)
		}
		if ref.Sites[s].Report != got.Sites[s].Report {
			t.Errorf("%s site %d: attacker reports diverge", label, s)
		}
		if !reflect.DeepEqual(ref.Sites[s].Victims, got.Sites[s].Victims) {
			t.Errorf("%s site %d: victim lists diverge", label, s)
		}
	}
	if (ref.FarField == nil) != (got.FarField == nil) {
		t.Fatalf("%s: far-field presence diverges", label)
	}
	if ref.FarField != nil {
		if !reflect.DeepEqual(ref.FarField.Outcomes, got.FarField.Outcomes) {
			t.Errorf("%s: far-field outcomes diverge", label)
		}
		rf, gf := *ref.FarField, *got.FarField
		rf.Outcomes, gf.Outcomes = nil, nil
		if !reflect.DeepEqual(rf, gf) {
			t.Errorf("%s: far-field accounting diverges: %+v vs %+v", label, rf, gf)
		}
	}
	if !reflect.DeepEqual(ref.Journal.Events(), got.Journal.Events()) {
		t.Errorf("%s: merged journals diverge", label)
	}
	var rs, gs bytes.Buffer
	if err := ref.Spans.WriteJSON(&rs); err != nil {
		t.Fatal(err)
	}
	if err := got.Spans.WriteJSON(&gs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rs.Bytes(), gs.Bytes()) {
		t.Errorf("%s: merged span traces diverge", label)
	}
}

// TestPartitionedDeterminismMatrix is the one-engine gate: the same
// deployment must produce byte-identical results at every partition count
// and every GOMAXPROCS, with no cross-group message ever delivered late.
// It covers the plain roaming trio, the city-scale trio (far-field tier
// crossing multiple promotion boundaries), and the three configurations
// that used to be refused: a shared knowledge plane (one group), two sites
// with overlapping radio ranges (a two-site group beside a singleton), and
// span tracing with the flight recorder armed (per-group recorders merged
// after the run).
func TestPartitionedDeterminismMatrix(t *testing.T) {
	scenarios := []struct {
		name  string
		setup func(d *DeploymentConfig)
	}{
		{"roaming-trio", func(d *DeploymentConfig) {}},
		{"city-scale-trio", func(d *DeploymentConfig) { d.FarField = trioFarField(*d, 40) }},
		{"shared-trio", func(d *DeploymentConfig) { d.Knowledge = Shared }},
		{"overlapping-trio", func(d *DeploymentConfig) {
			d.Sites[1].Position = d.Sites[0].Position.Add(geo.Pt(80, 0))
			d.FarField = trioFarField(*d, 40)
		}},
		{"span-trace-trio", func(d *DeploymentConfig) {
			d.Base.SpanTrace = true
			d.Base.FlightRecorderCap = 4096
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(partitions int) *DeploymentResult {
				d := partitionedTrio(t, 31)
				sc.setup(&d)
				d.Partitions = partitions
				res, coord, err := runDeployment(context.Background(), d, 0, 12*time.Minute)
				if err != nil {
					t.Fatalf("partitions=%d: %v", partitions, err)
				}
				if v := coord.LookaheadViolations(); v != 0 {
					t.Errorf("partitions=%d: %d lookahead violations", partitions, v)
				}
				return res
			}
			ref := run(0)
			if ref.Roams == 0 {
				t.Fatal("reference run never roamed; matrix exercises nothing")
			}
			if ref.FarField != nil && ref.FarField.Promotions == 0 {
				t.Fatal("reference run never promoted; matrix exercises nothing")
			}
			old := runtime.GOMAXPROCS(0)
			defer runtime.GOMAXPROCS(old)
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for _, parts := range []int{0, 1, 2, AutoPartitions} {
					got := run(parts)
					comparePartitioned(t, t.Name()+"/"+
						"procs="+itoa(procs)+"/parts="+itoa(parts), ref, got)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n > 9 {
		return itoa(n/10) + itoa(n%10)
	}
	return string(rune('0' + n))
}

// TestPartitionedMatchesClassicShape: the structural invariants of a
// deployment hold on several goroutines — per-site accounting sums to the
// pooled accounting, roamers are counted once.
func TestPartitionedMatchesClassicShape(t *testing.T) {
	d := partitionedTrio(t, 17)
	d.Partitions = AutoPartitions
	res, err := RunDeployment(d, 0, 12*time.Minute)
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	if res.Roams == 0 {
		t.Fatal("no phone ever roamed")
	}
	sum, outcomes := 0, 0
	for _, s := range res.Sites {
		sum += s.Tally.Total
		outcomes += len(s.Outcomes)
	}
	if sum != res.Tally.Total || outcomes != len(res.Outcomes) {
		t.Fatalf("per-site totals %d/%d != pooled %d/%d",
			sum, outcomes, res.Tally.Total, len(res.Outcomes))
	}
}

// TestPartitionedTransitWindowEdge pins the window-edge behaviour at the
// scenario layer: with a constant transit speed, minimum-distance transits
// take exactly one lookahead, so arrivals land on or next to coordinator
// barriers all run long. Results must still be partition-count invariant.
func TestPartitionedTransitWindowEdge(t *testing.T) {
	run := func(partitions int) *DeploymentResult {
		d := deployConfig(t, CityHunter, 13)
		d.RoamFraction = 1
		d.Transit = mobility.TransitModel{SpeedMin: 1.5, SpeedMax: 1.5}
		d.Partitions = partitions
		res, err := RunDeployment(d, 0, 15*time.Minute)
		if err != nil {
			t.Fatalf("partitions=%d: %v", partitions, err)
		}
		return res
	}
	ref := run(1)
	if ref.Roams == 0 {
		t.Fatal("no transits at RoamFraction 1")
	}
	comparePartitioned(t, "edge", ref, run(2))
}

// TestPartitionLookahead pins the lookahead derivation: the RF gap between
// groups over the transit speed, floored at the 1-second minimum leg
// duration, shrunk by the promotion-boundary gap when a far-field tier
// rides along — and the whole run as one window once every site shares a
// group.
func TestPartitionLookahead(t *testing.T) {
	site := func(x float64, rr float64) Venue {
		v := CanteenVenue()
		v.Position = geo.Pt(x, 0)
		v.RadioRange = rr
		return v
	}
	walk := mobility.TransitModel{SpeedMin: 1, SpeedMax: 1.5}
	look := func(sites []Venue, ff *FarFieldConfig) time.Duration {
		groupOf, _ := siteGroups(sites, Isolated, ff)
		return groupLookahead(sites, groupOf, walk, ff, time.Hour)
	}
	pair := []Venue{site(0, 50), site(400, 50)}

	// gap 300 m at SpeedMax 1.5 m/s → 200 s.
	if got := look(pair, nil); got != 200*time.Second {
		t.Fatalf("two sites: lookahead %v, want 200s", got)
	}
	if got := look([]Venue{site(0, 50)}, nil); got != time.Hour {
		t.Fatalf("single site: lookahead %v, want full duration", got)
	}
	if got := look([]Venue{site(0, 50), site(100.5, 50)}, nil); got != time.Second {
		t.Fatalf("sub-second gap: lookahead %v, want 1s floor", got)
	}
	if got := look([]Venue{site(0, 50), site(90, 50)}, nil); got != time.Hour {
		t.Fatalf("overlapping ranges: lookahead %v, want one window", got)
	}
	// A third site almost 5 km out keeps its own group: the lookahead comes from
	// the gap between groups, not the overlap inside one.
	if got := look([]Venue{site(0, 50), site(90, 50), site(4990, 50)}, nil); got != 3200*time.Second {
		t.Fatalf("overlapping pair plus a far site: lookahead %v, want 3200s", got)
	}

	// A far-field tier shrinks the lookahead to the promotion-boundary gap
	// over the route transit speed: 400 − 2·75 = 250 m at 2 m/s.
	ff := &FarFieldConfig{Pedestrians: 1, Radius: 75, Route: mobility.RouteModel{
		Transit: mobility.TransitModel{SpeedMin: 1, SpeedMax: 2}}}
	if got := look(pair, ff); got != 125*time.Second {
		t.Fatalf("far-field lookahead %v, want 125s", got)
	}
	wide := &FarFieldConfig{Pedestrians: 1, Radius: 200, Route: ff.Route}
	if got := look(pair, wide); got != time.Hour {
		t.Fatalf("overlapping promotion boundaries: lookahead %v, want one window", got)
	}
}

// TestSiteGroups unit-tests the grouping rules.
func TestSiteGroups(t *testing.T) {
	at := func(xs ...float64) []Venue {
		var out []Venue
		for _, x := range xs {
			v := CanteenVenue()
			v.Position = geo.Pt(x, 0)
			v.RadioRange = 50
			out = append(out, v)
		}
		return out
	}
	ff := &FarFieldConfig{Pedestrians: 1, Radius: 150}
	cases := []struct {
		name      string
		sites     []Venue
		knowledge KnowledgePlane
		ff        *FarFieldConfig
		want      []int
	}{
		{"far apart stay singletons", at(0, 1000, 2000), Isolated, nil, []int{0, 1, 2}},
		{"shared plane is one group", at(0, 1000, 2000), Shared, nil, []int{0, 0, 0}},
		{"transitive overlap chain", at(0, 90, 180), Isolated, nil, []int{0, 0, 0}},
		{"chain closing across a gap", at(180, 5000, 90, 0), PeriodicSync, nil, []int{0, 1, 0, 0}},
		{"touching ranges join", at(0, 100), Isolated, nil, []int{0, 0}},
		{"boundaries without a far field", at(0, 250, 1000), Isolated, nil, []int{0, 1, 2}},
		{"overlapping boundaries join", at(0, 250, 1000), Isolated, ff, []int{0, 0, 1}},
		{"empty far field joins nothing", at(0, 250), Isolated, &FarFieldConfig{Radius: 150}, []int{0, 1}},
		{"numbered by lowest site", at(1000, 0, 1090, 5000, 40), Isolated, nil, []int{0, 1, 0, 2, 1}},
	}
	for _, tc := range cases {
		got, n := siteGroups(tc.sites, tc.knowledge, tc.ff)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: groups %v, want %v", tc.name, got, tc.want)
		}
		if want := slices.Max(tc.want) + 1; n != want {
			t.Errorf("%s: %d groups, want %d", tc.name, n, want)
		}
	}
}

// TestPartitionedAcceptsFormerRejections: the three configurations the
// partitioned engine used to refuse — a shared knowledge plane,
// overlapping radio ranges, span tracing — now run on several goroutines
// and give the results they give on one.
func TestPartitionedAcceptsFormerRejections(t *testing.T) {
	configs := map[string]func(d *DeploymentConfig){
		"shared":  func(d *DeploymentConfig) { d.Knowledge = Shared },
		"overlap": func(d *DeploymentConfig) { d.Sites[1].Position = d.Sites[0].Position.Add(geo.Pt(80, 0)) },
		"traced":  func(d *DeploymentConfig) { d.Base.SpanTrace = true },
	}
	for name, setup := range configs {
		run := func(partitions int) *DeploymentResult {
			d := partitionedTrio(t, 3)
			setup(&d)
			d.Partitions = partitions
			res, err := RunDeployment(d, 0, 3*time.Minute)
			if err != nil {
				t.Fatalf("%s at partitions=%d refused: %v", name, partitions, err)
			}
			return res
		}
		ref := run(0)
		if name == "traced" && ref.Spans.Len() == 0 {
			t.Errorf("traced deployment recorded no spans")
		}
		comparePartitioned(t, name, ref, run(AutoPartitions))
	}
}

// TestPartitionedCancellation checks the cancellation contract: a mid-run
// cancel returns the partial result with a wrapped context error, and —
// the satellite's point — every partition goroutine is joined before
// RunDeploymentContext returns, so nothing leaks.
func TestPartitionedCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	d := partitionedTrio(t, 9)
	d.FarField = trioFarField(d, 40)
	d.Partitions = AutoPartitions
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res, err := RunDeploymentContext(ctx, d, 0, 12*time.Hour)
	if err == nil {
		t.Fatal("12-hour deployment finished before the cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled deployment returned no partial result")
	}
	if res.Duration >= 12*time.Hour {
		t.Fatalf("partial result claims full duration %v", res.Duration)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked after cancel: %d before, %d after", before, n)
	}
}
