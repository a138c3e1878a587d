package scenario

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/mobility"
	"cityhunter/internal/stats"
)

func deployConfig(t *testing.T, kind AttackKind, seed int64) DeploymentConfig {
	t.Helper()
	base := baseConfig(t, Venue{}, kind, seed)
	base.ArrivalScale = 0.5
	// The real canteen and passage sit ~2.2 km apart — a 26-minute walk.
	// Tests pull the passage next door so transits complete within short
	// runs; the PNL geography stays the canteen's.
	canteen := CanteenVenue()
	passage := PassageVenue()
	passage.Position = canteen.Position.Add(geo.Pt(400, 0))
	return DeploymentConfig{
		Base:  base,
		Sites: []Venue{canteen, passage},
	}
}

func TestDeploymentValidation(t *testing.T) {
	good := deployConfig(t, CityHunter, 1)
	if _, err := RunDeploymentContext(context.Background(), good, 0, time.Minute); err != nil {
		t.Fatalf("valid deployment rejected: %v", err)
	}

	bad := good
	bad.Base.City = nil
	if _, err := RunDeploymentContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("nil city accepted")
	}
	bad = good
	bad.Sites = nil
	if _, err := RunDeploymentContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("empty site list accepted")
	}
	bad = good
	unnamed := CanteenVenue()
	unnamed.Name = ""
	bad.Sites = []Venue{unnamed}
	if _, err := RunDeploymentContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("unnamed site accepted")
	}
	bad = good
	ranged := CanteenVenue()
	ranged.RadioRange = 0
	bad.Sites = []Venue{ranged}
	if _, err := RunDeploymentContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("zero radio range accepted")
	}
	if _, err := RunDeploymentContext(context.Background(), good, 99, time.Minute); err == nil {
		t.Error("slot beyond profile accepted")
	}
	bad = good
	bad.RoamFraction = 1.5
	if _, err := RunDeploymentContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("roam fraction above 1 accepted")
	}
	bad = good
	bad.Knowledge = KnowledgePlane(9)
	if _, err := RunDeploymentContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("unknown knowledge plane accepted")
	}
	bad = good
	bad.Transit = mobility.TransitModel{SpeedMin: 2, SpeedMax: 1}
	if _, err := RunDeploymentContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("invalid transit model accepted")
	}
	if _, err := RunDeploymentContext(context.Background(), good, 0, 0); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestSingleSiteDeploymentMatchesRun pins "a single-venue run is a
// one-site deployment": Run and a one-site deployment without roaming must
// agree on every result and on the metrics snapshot, which for one site
// carries no "site" label.
func TestSingleSiteDeploymentMatchesRun(t *testing.T) {
	for _, kind := range []AttackKind{KARMA, MANA, CityHunter} {
		cfg := baseConfig(t, CanteenVenue(), kind, 11)
		cfg.ArrivalScale = 0.5
		cfg.PreconnectedFraction = 0.2
		cfg.EnableDeauth = true
		cfg.Metrics = true
		single, err := RunContext(context.Background(), cfg, 0, 10*time.Minute)
		if err != nil {
			t.Fatalf("%v: run: %v", kind, err)
		}
		dep, err := RunDeploymentContext(context.Background(), DeploymentConfig{Base: cfg, Sites: []Venue{CanteenVenue()}}, 0, 10*time.Minute)
		if err != nil {
			t.Fatalf("%v: deployment: %v", kind, err)
		}
		if len(dep.Sites) != 1 {
			t.Fatalf("%v: %d site results", kind, len(dep.Sites))
		}
		site := dep.Sites[0]
		if !reflect.DeepEqual(single.Outcomes, site.Outcomes) {
			t.Errorf("%v: outcomes diverge between Run and 1-site deployment", kind)
		}
		if single.Tally != site.Tally || single.Tally != dep.Tally {
			t.Errorf("%v: tallies diverge: run %+v site %+v pooled %+v",
				kind, single.Tally, site.Tally, dep.Tally)
		}
		if single.Report != site.Report {
			t.Errorf("%v: attacker reports diverge: %+v vs %+v", kind, single.Report, site.Report)
		}
		if !reflect.DeepEqual(single.Victims, site.Victims) {
			t.Errorf("%v: victim lists diverge", kind)
		}
		if dep.Roams != 0 {
			t.Errorf("%v: single-site deployment roamed %d times", kind, dep.Roams)
		}
		if !reflect.DeepEqual(single.Metrics, site.Metrics) || !reflect.DeepEqual(single.Metrics, dep.Metrics) {
			t.Errorf("%v: metrics snapshots diverge between Run and 1-site deployment", kind)
		}
		for _, m := range dep.Metrics {
			if strings.Contains(m.Labels, "site=") {
				t.Errorf("%v: one-site deployment labels %s{%s}", kind, m.Name, m.Labels)
			}
		}
	}
}

// countdownCtx is a context that reports cancellation from its n-th Err
// call on. Engines poll Err every few hundred events, so it cancels a run
// mid-window at the same event every time, with no wall-clock race.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSingleSiteDeploymentCancelDuration cancels a one-site deployment
// inside its single window: the partial result covers the virtual time the
// engine reached, not the last barrier (0), and a Run cancelled at the same
// event reports the same time.
func TestSingleSiteDeploymentCancelDuration(t *testing.T) {
	const requested = time.Hour
	cfg := baseConfig(t, CanteenVenue(), CityHunter, 3)
	cfg.ArrivalScale = 0.5
	dep, err := RunDeploymentContext(newCountdownCtx(40), DeploymentConfig{Base: cfg, Sites: []Venue{CanteenVenue()}}, 4, requested)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if dep == nil || dep.Duration <= 0 || dep.Duration >= requested {
		t.Fatalf("cancelled deployment duration = %v, want inside (0, %v)", dep.Duration, requested)
	}
	if got := dep.Sites[0].Duration; got != dep.Duration {
		t.Errorf("site duration %v != deployment duration %v", got, dep.Duration)
	}
	res, err := RunContext(newCountdownCtx(40), cfg, 4, requested)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want wrapped context.Canceled", err)
	}
	if res.Duration != dep.Duration || res.Tally != dep.Tally {
		t.Errorf("cancelled run (%v, %+v) != cancelled deployment (%v, %+v)",
			res.Duration, res.Tally, dep.Duration, dep.Tally)
	}
}

// TestDeploymentDeterminism runs the same roaming deployment sequentially
// and concurrently: every execution must agree outcome for outcome.
func TestDeploymentDeterminism(t *testing.T) {
	run := func() *DeploymentResult {
		cfg := deployConfig(t, CityHunter, 7)
		cfg.RoamFraction = 0.5
		cfg.Knowledge = Shared
		res, err := RunDeploymentContext(context.Background(), cfg, 0, 15*time.Minute)
		if err != nil {
			t.Errorf("deployment: %v", err)
			return nil
		}
		return res
	}
	ref := run()
	if ref == nil {
		t.FailNow()
	}
	const workers = 4
	results := make([]*DeploymentResult, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = run()
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			t.FailNow()
		}
		if !reflect.DeepEqual(ref.Outcomes, res.Outcomes) {
			t.Errorf("worker %d: pooled outcomes diverge", i)
		}
		if ref.Tally != res.Tally || ref.Roams != res.Roams {
			t.Errorf("worker %d: tally/roams diverge: %+v/%d vs %+v/%d",
				i, ref.Tally, ref.Roams, res.Tally, res.Roams)
		}
		for s := range ref.Sites {
			if ref.Sites[s].Tally != res.Sites[s].Tally {
				t.Errorf("worker %d site %d: tallies diverge", i, s)
			}
		}
	}
}

// TestDeploymentRoaming checks the transit plumbing: with RoamFraction 1
// phones keep hopping between the two sites until the run ends.
func TestDeploymentRoaming(t *testing.T) {
	cfg := deployConfig(t, CityHunter, 3)
	cfg.RoamFraction = 1
	res, err := RunDeploymentContext(context.Background(), cfg, 0, 20*time.Minute)
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	if res.Roams == 0 {
		t.Fatal("no phone ever roamed at RoamFraction 1")
	}
	// The tally counts probed phones only, so it can trail the outcome
	// list — but pooled and per-site accounting must agree (a roamer is
	// counted once, under its first site).
	if res.Tally.Total > len(res.Outcomes) {
		t.Fatalf("pooled tally counts %d phones, only %d outcomes", res.Tally.Total, len(res.Outcomes))
	}
	sum, outcomes := 0, 0
	for _, s := range res.Sites {
		sum += s.Tally.Total
		outcomes += len(s.Outcomes)
	}
	if sum != res.Tally.Total || outcomes != len(res.Outcomes) {
		t.Fatalf("per-site totals %d/%d != pooled %d/%d (roamers double-counted?)",
			sum, outcomes, res.Tally.Total, len(res.Outcomes))
	}
}

// TestKnowledgePlanesDegradeForDatabaselessAttacks: KARMA has nothing to
// share, so every plane must run (and agree with Isolated).
func TestKnowledgePlanesDegradeForDatabaselessAttacks(t *testing.T) {
	var ref *DeploymentResult
	for _, plane := range []KnowledgePlane{Isolated, PeriodicSync, Shared} {
		cfg := deployConfig(t, KARMA, 5)
		cfg.RoamFraction = 0.5
		cfg.Knowledge = plane
		res, err := RunDeploymentContext(context.Background(), cfg, 0, 10*time.Minute)
		if err != nil {
			t.Fatalf("%v: %v", plane, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref.Outcomes, res.Outcomes) {
			t.Errorf("%v: KARMA outcomes differ from isolated", plane)
		}
	}
}

// TestSharedKnowledgeBeatsIsolated is the deployment plane's reason to
// exist (and this PR's acceptance criterion): across the same seeds, two
// sites sharing one City-Hunter database capture strictly more
// broadcast-probing roamers than two isolated copies — the shared
// rotation state means a phone that exhausted site A's top replies gets
// the next untried batch at site B instead of the same head again.
func TestSharedKnowledgeBeatsIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed 30-minute deployments")
	}
	t.Parallel()
	pooled := func(plane KnowledgePlane, seed int64) stats.Tally {
		cfg := deployConfig(t, CityHunter, seed)
		cfg.RoamFraction = 0.5
		cfg.Knowledge = plane
		res, err := RunDeploymentContext(context.Background(), cfg, 0, 30*time.Minute)
		if err != nil {
			t.Fatalf("%v seed %d: %v", plane, seed, err)
		}
		return res.Tally
	}
	add := func(a, b stats.Tally) stats.Tally {
		a.Broadcast += b.Broadcast
		a.ConnectedBroadcast += b.ConnectedBroadcast
		return a
	}
	seeds := []int64{1, 2, 3}
	var isolated, shared stats.Tally
	for _, seed := range seeds {
		isolated = add(isolated, pooled(Isolated, seed))
		shared = add(shared, pooled(Shared, seed))
	}
	t.Logf("pooled broadcast captures over seeds %v: isolated=%d/%d shared=%d/%d",
		seeds, isolated.ConnectedBroadcast, isolated.Broadcast,
		shared.ConnectedBroadcast, shared.Broadcast)
	if shared.ConnectedBroadcast <= isolated.ConnectedBroadcast {
		t.Fatalf("shared knowledge plane captured %d broadcast probers, isolated %d — sharing must win",
			shared.ConnectedBroadcast, isolated.ConnectedBroadcast)
	}
	if shared.BroadcastHitRate() <= isolated.BroadcastHitRate() {
		t.Fatalf("shared pooled h_b %.4f not above isolated %.4f",
			shared.BroadcastHitRate(), isolated.BroadcastHitRate())
	}
}
