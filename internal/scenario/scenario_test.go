package scenario

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cityhunter/internal/citygen"
	"cityhunter/internal/heatmap"
	"cityhunter/internal/mobility"
)

var (
	cityOnce sync.Once
	cityVal  *citygen.City
	heatVal  *heatmap.Map
)

// testCity generates the default city once per test binary.
func testCity(t *testing.T) (*citygen.City, *heatmap.Map) {
	t.Helper()
	cityOnce.Do(func() {
		c, err := citygen.Generate(citygen.DefaultConfig(7))
		if err != nil {
			t.Fatalf("citygen: %v", err)
		}
		hm, err := heatmap.FromPhotos(c.Bounds, 200, c.Photos)
		if err != nil {
			t.Fatalf("heatmap: %v", err)
		}
		cityVal, heatVal = c, hm
	})
	if cityVal == nil {
		t.Fatal("city generation failed earlier")
	}
	return cityVal, heatVal
}

func baseConfig(t *testing.T, venue Venue, kind AttackKind, seed int64) Config {
	city, hm := testCity(t)
	return Config{
		City:                 city,
		HeatMap:              hm,
		Venue:                venue,
		Attack:               kind,
		DirectProberFraction: 0.15,
		ScanInterval:         25 * time.Second,
		Seed:                 seed,
	}
}

func TestRunValidation(t *testing.T) {
	city, hm := testCity(t)
	base := Config{City: city, HeatMap: hm, Venue: CanteenVenue(), Attack: KARMA, Seed: 1}
	if _, err := RunContext(context.Background(), Config{Venue: CanteenVenue(), Attack: KARMA}, 0, time.Minute); err == nil {
		t.Error("nil city accepted")
	}
	if _, err := RunContext(context.Background(), base, -1, time.Minute); err == nil {
		t.Error("negative slot accepted")
	}
	if _, err := RunContext(context.Background(), base, 99, time.Minute); err == nil {
		t.Error("slot beyond profile accepted")
	}
	if _, err := RunContext(context.Background(), base, 0, 0); err == nil {
		t.Error("zero duration accepted")
	}
	bad := base
	bad.DirectProberFraction = 2
	if _, err := RunContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("bad direct fraction accepted")
	}
	bad = base
	bad.Attack = AttackKind(99)
	if _, err := RunContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("unknown attack accepted")
	}
	bad = base
	bad.PreconnectedFraction = -1
	if _, err := RunContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("bad preconnected fraction accepted")
	}
	// A direct run validates its venue like any deployment site.
	bad = base
	bad.Venue.StaticDwell = mobility.StaticDwell{Median: -time.Minute, Sigma: 0.5, Max: time.Hour}
	var fe *FieldError
	if _, err := RunContext(context.Background(), bad, 0, time.Minute); !errors.As(err, &fe) || fe.Path != "sites[0].staticDwell.medianMinutes" {
		t.Errorf("negative dwell median: err = %v, want a FieldError at sites[0].staticDwell.medianMinutes", err)
	}
}

// TestCanteenComparison reproduces the Table I / Table II shape in the
// canteen: KARMA < MANA < preliminary City-Hunter on overall hit rate,
// KARMA h_b = 0, and City-Hunter's h_b several times MANA's.
func TestCanteenComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("30-minute canteen runs")
	}
	t.Parallel()
	run := func(kind AttackKind) *Result {
		cfg := baseConfig(t, CanteenVenue(), kind, 11)
		res, err := RunContext(context.Background(), cfg, 4, 30*time.Minute) // lunch slot
		if err != nil {
			t.Fatalf("Run(%v): %v", kind, err)
		}
		t.Logf("%-28s %s", res.Attack, res.Tally)
		return res
	}
	karma := run(KARMA)
	mana := run(MANA)
	prelim := run(CityHunterPreliminary)
	full := run(CityHunter)

	if karma.Tally.BroadcastHitRate() != 0 {
		t.Errorf("KARMA h_b = %v, want 0", karma.Tally.BroadcastHitRate())
	}
	if mana.Tally.BroadcastHitRate() <= 0 {
		t.Error("MANA h_b = 0; it should capture some broadcast probers")
	}
	if prelim.Tally.BroadcastHitRate() < 2*mana.Tally.BroadcastHitRate() {
		t.Errorf("preliminary City-Hunter h_b %.3f not ≫ MANA %.3f",
			prelim.Tally.BroadcastHitRate(), mana.Tally.BroadcastHitRate())
	}
	if full.Tally.BroadcastHitRate() < prelim.Tally.BroadcastHitRate()*0.7 {
		t.Errorf("full City-Hunter h_b %.3f much worse than preliminary %.3f",
			full.Tally.BroadcastHitRate(), prelim.Tally.BroadcastHitRate())
	}
	// Paper bands: City-Hunter h_b 12–18 % (we accept 8–30 % across
	// seeds), MANA h_b ≈ 3 % (accept <8 %).
	if hb := full.Tally.BroadcastHitRate(); hb < 0.08 || hb > 0.30 {
		t.Errorf("City-Hunter canteen h_b = %.3f outside calibration band", hb)
	}
	if hb := mana.Tally.BroadcastHitRate(); hb > 0.08 {
		t.Errorf("MANA canteen h_b = %.3f above calibration band", hb)
	}
}

// TestPassageVsCanteen reproduces the §III observation: the same attacker
// does worse where people keep moving.
func TestPassageVsCanteen(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario runs")
	}
	t.Parallel()
	canteen, err := RunContext(context.Background(), baseConfig(t, CanteenVenue(), CityHunter, 13), 4, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	passage, err := RunContext(context.Background(), baseConfig(t, PassageVenue(), CityHunter, 13), 2, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("canteen  %s", canteen.Tally)
	t.Logf("passage  %s", passage.Tally)
	if passage.Tally.BroadcastHitRate() >= canteen.Tally.BroadcastHitRate() {
		t.Errorf("passage h_b %.3f >= canteen h_b %.3f; mobility should hurt",
			passage.Tally.BroadcastHitRate(), canteen.Tally.BroadcastHitRate())
	}
	// Clients in the passage see far fewer SSIDs than in the canteen.
	meanSent := func(r *Result) float64 {
		total, n := 0, 0
		for _, o := range r.Outcomes {
			if o.Probed && !o.DirectProber {
				total += o.SSIDsSent
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	mc, mp := meanSent(canteen), meanSent(passage)
	t.Logf("mean SSIDs sent: canteen %.0f, passage %.0f", mc, mp)
	if mp >= mc {
		t.Errorf("mean SSIDs sent passage %.0f >= canteen %.0f", mp, mc)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := baseConfig(t, PassageVenue(), CityHunter, 17)
	cfg.ArrivalScale = 0.3
	a, err := RunContext(context.Background(), cfg, 1, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg, 1, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tally != b.Tally {
		t.Errorf("same seed, different tallies:\n%v\n%v", a.Tally, b.Tally)
	}
	if len(a.Victims) != len(b.Victims) {
		t.Errorf("victims differ: %d vs %d", len(a.Victims), len(b.Victims))
	}
}

func TestRunSampling(t *testing.T) {
	cfg := baseConfig(t, CanteenVenue(), CityHunter, 19)
	cfg.ArrivalScale = 0.3
	cfg.SampleEvery = time.Minute
	res, err := RunContext(context.Background(), cfg, 0, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine == nil {
		t.Fatal("no engine on City-Hunter run")
	}
	samples := res.Engine.Samples()
	if len(samples) < 5 {
		t.Errorf("samples = %d, want ≥5 over 5 minutes", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].DBSize < samples[i-1].DBSize {
			t.Error("DB size series decreased")
		}
	}
}

func TestManaRunExposesDB(t *testing.T) {
	cfg := baseConfig(t, CanteenVenue(), MANA, 23)
	cfg.ArrivalScale = 0.3
	cfg.SampleEvery = time.Minute
	res, err := RunContext(context.Background(), cfg, 4, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mana == nil {
		t.Fatal("no MANA handle")
	}
	if res.Engine != nil {
		t.Error("engine set on MANA run")
	}
	if len(res.Mana.SizeSamples()) == 0 {
		t.Error("no size samples collected")
	}
}

func TestVenueStringsAndKinds(t *testing.T) {
	for _, v := range AllVenues() {
		if v.Name == "" || v.Kind.String() == "unknown venue" {
			t.Errorf("bad venue %+v", v)
		}
		if err := v.Profile.Validate(); err != nil {
			t.Errorf("venue %s profile: %v", v.Name, err)
		}
	}
	kinds := []AttackKind{KARMA, MANA, CityHunterPreliminary, CityHunter, AttackKind(0)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("bad kind string %q", s)
		}
		seen[s] = true
	}
}

func TestVenueRushDetection(t *testing.T) {
	v := PassageVenue()
	if !v.IsRush(0) || v.IsRush(5) {
		t.Error("passage rush slots wrong")
	}
	rush := v.Groups(0)
	base := v.Groups(5)
	if rush.Probs[0] >= base.Probs[0] {
		t.Error("rush groups should have fewer singles")
	}
}

func TestRandomizedMACsInflateAttackerView(t *testing.T) {
	cfg := baseConfig(t, CanteenVenue(), CityHunter, 31)
	cfg.ArrivalScale = 0.4
	cfg.RandomizeMACFraction = 1.0
	res, err := RunContext(context.Background(), cfg, 4, 8*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth counts phones; the attacker counts MACs — with
	// per-scan randomization it sees far more "clients" than exist.
	if res.Report.TotalClients <= 2*res.Tally.Total {
		t.Errorf("attacker saw %d clients for %d real phones; randomization should inflate",
			res.Report.TotalClients, res.Tally.Total)
	}
	// The attack still lands some victims (head batches still cover the
	// popular SSIDs) but ground truth tracking stays intact.
	if res.Tally.Total == 0 {
		t.Fatal("no phones")
	}
}

func TestCanaryFractionNeutralizes(t *testing.T) {
	cfg := baseConfig(t, CanteenVenue(), CityHunter, 33)
	cfg.ArrivalScale = 0.4
	cfg.CanaryFraction = 1.0
	res, err := RunContext(context.Background(), cfg, 4, 8*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.ConnectedBroadcast != 0 {
		t.Errorf("canary-armed crowd still lost %d broadcast clients", res.Tally.ConnectedBroadcast)
	}
	if res.CanaryDetections == 0 {
		t.Error("no canary detections recorded")
	}
}

func TestSentinelWiredIntoScenario(t *testing.T) {
	cfg := baseConfig(t, CanteenVenue(), CityHunter, 35)
	cfg.ArrivalScale = 0.4
	cfg.Sentinel = true
	cfg.Trace = true
	res, err := RunContext(context.Background(), cfg, 4, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sentinel == nil {
		t.Fatal("no sentinel on result")
	}
	if len(res.Sentinel.Findings()) == 0 {
		t.Error("sentinel flagged nothing during an active attack")
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Error("trace monitor captured nothing")
	}
}

func TestFrameLossDegradesGracefully(t *testing.T) {
	clean := baseConfig(t, CanteenVenue(), CityHunter, 41)
	clean.ArrivalScale = 0.5
	lossy := clean
	lossy.FrameLoss = 0.4

	a, err := RunContext(context.Background(), clean, 4, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), lossy, 4, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clean %v", a.Tally)
	t.Logf("lossy %v", b.Tally)
	// 802.11 unicast retries absorb most of the damage: the attack must
	// survive 40% frame loss (probes are the unretried casualty, and
	// rescans cover those). With ~80 broadcast clients the rates are too
	// noisy for a strict ordering, so assert survival within a band.
	if b.Tally.ConnectedBroadcast == 0 {
		t.Error("40% loss killed the attack entirely; retries and rescans should recover hits")
	}
	lo, hi := a.Tally.BroadcastHitRate()/3, a.Tally.BroadcastHitRate()*2+0.05
	if got := b.Tally.BroadcastHitRate(); got < lo || got > hi {
		t.Errorf("lossy h_b %.3f outside sanity band [%.3f, %.3f]", got, lo, hi)
	}
	// Validation rejects nonsense.
	bad := clean
	bad.FrameLoss = 1.0
	if _, err := RunContext(context.Background(), bad, 4, time.Minute); err == nil {
		t.Error("loss = 1.0 accepted")
	}
}

func TestKnownBeaconsBaseline(t *testing.T) {
	t.Parallel()
	cfg := baseConfig(t, CanteenVenue(), KnownBeacons, 51)
	cfg.ArrivalScale = 0.6
	kb, err := RunContext(context.Background(), cfg, 4, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	chCfg := cfg
	chCfg.Attack = CityHunter
	ch, err := RunContext(context.Background(), chCfg, 4, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("known beacons %v (beacons sent %d)", kb.Tally, kb.Report.BeaconsSent)
	t.Logf("city-hunter   %v", ch.Tally)
	if kb.Report.BeaconsSent == 0 {
		t.Fatal("no beacons transmitted")
	}
	// The blind broadcast tries ~1-2 SSIDs per scan window; City-Hunter's
	// targeted 40-SSID batches must beat it clearly.
	if kb.Tally.BroadcastHitRate() >= ch.Tally.BroadcastHitRate() {
		t.Errorf("known beacons h_b %.3f not below City-Hunter %.3f",
			kb.Tally.BroadcastHitRate(), ch.Tally.BroadcastHitRate())
	}
	// But given enough dwell it does land some victims.
	if kb.Tally.ConnectedBroadcast == 0 {
		t.Error("known beacons captured nobody in a 15-minute canteen sitting")
	}
	// It also never answers probes.
	if kb.Tally.ConnectedDirect > kb.Tally.Direct {
		t.Error("accounting broken")
	}
}

func TestCautiousMirrorBeatsCanaries(t *testing.T) {
	base := baseConfig(t, CanteenVenue(), CityHunter, 61)
	base.ArrivalScale = 0.6
	base.CanaryFraction = 1.0

	eager, err := RunContext(context.Background(), base, 4, 12*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cautious := base
	cautious.CautiousMirror = true
	careful, err := RunContext(context.Background(), cautious, 4, 12*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("eager mirror   %v (%d unmaskings)", eager.Tally, eager.CanaryDetections)
	t.Logf("cautious mirror %v (%d unmaskings)", careful.Tally, careful.CanaryDetections)

	// The eager mirror answers every canary and gets blacklisted by the
	// whole crowd; the cautious one never touches a canary.
	if eager.Tally.ConnectedBroadcast != 0 {
		t.Errorf("eager attacker still hit %d broadcast clients through canaries",
			eager.Tally.ConnectedBroadcast)
	}
	if careful.CanaryDetections != 0 {
		t.Errorf("cautious attacker unmasked %d times", careful.CanaryDetections)
	}
	if careful.Tally.ConnectedBroadcast == 0 {
		t.Error("cautious attacker recovered no broadcast hits against a canary crowd")
	}
}

func TestGridParallelismDeterministic(t *testing.T) {
	// Same seeds, different worker counts: identical results.
	// (Exercised here at the scenario level via repeated runs; the
	// experiments package fans out with its own workers.)
	cfg := baseConfig(t, StationVenue(), CityHunter, 63)
	cfg.ArrivalScale = 0.4
	a, err := RunContext(context.Background(), cfg, 2, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg, 2, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tally != b.Tally || len(a.Victims) != len(b.Victims) {
		t.Error("repeat run diverged")
	}
}

func TestRunContextCancelled(t *testing.T) {
	cfg := baseConfig(t, CanteenVenue(), CityHunter, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, cfg, 4, 10*time.Minute)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil partial result")
	}
	if res.Duration >= 10*time.Minute {
		t.Errorf("partial result claims full duration %v", res.Duration)
	}
}
