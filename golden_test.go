// Golden-equivalence tests: the seed-1 outputs captured before the
// scenario.Runner decomposition (testdata/golden/*) must stay byte-identical
// through any refactor of the run path. Five surfaces are pinned, each at
// worker counts 1 and 8 where a pool is involved:
//
//   - the reduced-scale experiments grid (Figures 5+6 rendering),
//   - campaign mode (per-spec rows plus the aggregate line, as the CLI
//     prints them),
//   - a city-scale trio with a far field, at one partition and at one per
//     site group,
//   - the phone draws no default run takes: canary, pre-connected and
//     randomizing phones, with and without a named rotation policy, at a
//     venue and in a far field,
//   - the sha256 of a single-run pcap capture.
//
// Regenerate with `go test -run TestGolden -update` ONLY when an
// intentional behaviour change is being made; a refactor must never need it.
package cityhunter_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cityhunter"
	"cityhunter/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files from current behaviour")

const goldenDir = "testdata/golden"

// checkGolden compares got against the named golden file, rewriting it in
// -update mode.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test -run TestGolden -update`): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from pre-refactor golden.\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// goldenOptions is the reduced-scale harness configuration every golden
// capture uses: small enough to run in test time, large enough that hits
// occur and every layer is exercised.
func goldenOptions(workers int) experiments.Options {
	return experiments.Options{
		SlotDuration: 2 * time.Minute,
		ArrivalScale: 0.5,
		Pool:         cityhunter.CampaignPool{Workers: workers},
	}
}

// TestGoldenExperimentsGrid pins the Figure 5/6 grid rendering at worker
// counts 1 and 8 — both must match the same golden file, which also proves
// the grid is byte-identical across pool sizes.
func TestGoldenExperimentsGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid golden is not -short friendly")
	}
	world := apiWorld(t)
	for _, workers := range []int{1, 8} {
		grid, err := experiments.Grid(context.Background(), world, goldenOptions(workers))
		if err != nil {
			t.Fatalf("grid (workers=%d): %v", workers, err)
		}
		out := grid.Figure5() + grid.Figure6()
		checkGolden(t, "grid_seed1.txt", out)
	}
}

// goldenCampaignJSON is the campaign-mode capture: a hand-written campaign
// plan exercising the by-name venue references and the declarative knobs.
const goldenCampaignJSON = `{
  "version": 1,
  "kind": "campaign",
  "campaign": {
    "runs": [
      {"name": "lunch canteen", "venue": "canteen", "attack": "cityhunter", "slot": 4, "minutes": 3},
      {"name": "rush passage", "venue": "passage", "attack": "cityhunter", "slot": 0, "minutes": 3},
      {"name": "mana mall", "venue": "mall", "attack": "mana", "slot": 6, "minutes": 3, "arrivalScale": 0.5}
    ]
  }
}`

// TestGoldenCampaign pins campaign mode: per-spec result rows and the
// aggregate line, rendered the way cmd/cityhunter-sim prints them, at worker
// counts 1 and 8.
func TestGoldenCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign golden is not -short friendly")
	}
	world := apiWorld(t)
	p, err := cityhunter.DecodePlan([]byte(goldenCampaignJSON))
	if err != nil {
		t.Fatal(err)
	}
	specs := p.Specs
	for _, workers := range []int{1, 8} {
		res, err := world.RunCampaign(context.Background(), specs, cityhunter.CampaignPool{Workers: workers})
		if err != nil {
			t.Fatalf("campaign (workers=%d): %v", workers, err)
		}
		var b strings.Builder
		for i, spec := range specs {
			r := res.Results[i]
			fmt.Fprintf(&b, "%-24s %s at the %s, %s: %v\n",
				spec.Name, r.Attack, r.Venue, r.SlotLabel, r.Tally)
		}
		b.WriteString(res.Aggregate.String() + "\n")
		checkGolden(t, "campaign_seed1.txt", b.String())
	}
}

// TestGoldenFarField pins the level-of-detail tier on a small city-scale
// trio: the far-field accounting, every promoted pedestrian's outcome and
// each site's tally and link report, at one partition and at one per site
// group — both must match the same golden file. Every promoted phone's PNL,
// behaviour flags and scan jitter come from its private RNG stream, so any
// change to how those streams are seeded or replayed shows up here.
func TestGoldenFarField(t *testing.T) {
	if testing.Short() {
		t.Skip("far-field golden is not -short friendly")
	}
	world := apiWorld(t)
	stops := world.City.RouteStops()
	sites := []cityhunter.Venue{cityhunter.StationVenue(), cityhunter.CanteenVenue(), cityhunter.MallVenue()}
	for _, partitions := range []int{1, cityhunter.AutoPartitions} {
		res, err := world.DeploySitesContext(context.Background(), sites, cityhunter.CityHunter,
			cityhunter.LunchSlot, 20*time.Minute,
			cityhunter.WithRoaming(0.3),
			cityhunter.WithPopulationScale(6000),
			cityhunter.WithLODRadius(100),
			cityhunter.WithCityRoutes(stops),
			cityhunter.WithPartitions(partitions),
			cityhunter.WithRunOptions(cityhunter.WithRunSeed(1), cityhunter.WithArrivalScale(0.3)))
		if err != nil {
			t.Fatalf("deployment (partitions=%d): %v", partitions, err)
		}
		ff := res.FarField
		if ff == nil {
			t.Fatalf("partitions=%d: no far-field result", partitions)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "far field: %d pedestrians, %d promoted, %d promotions, %d demotions, peak %d\n",
			ff.Pedestrians, ff.Promoted, ff.Promotions, ff.Demotions, ff.PeakPromoted)
		fmt.Fprintf(&b, "far-field tally: %v\n", ff.Tally)
		for _, s := range ff.Sites {
			fmt.Fprintf(&b, "far-field site %s: %d promotions, %d hits\n", s.Name, s.Promotions, s.Hits)
		}
		for _, o := range ff.Outcomes {
			fmt.Fprintf(&b, "pedestrian %+v\n", o)
		}
		for _, s := range res.Sites {
			fmt.Fprintf(&b, "site %s: %v\n", s.Venue, s.Tally)
			fmt.Fprintf(&b, "site %s links: %+v\n", s.Venue, s.Links)
		}
		checkGolden(t, "farfield.txt", b.String())
	}
}

// TestGoldenPhoneDraws pins the per-phone behaviour draws the calibrated
// defaults leave at zero — canary probing, pre-connection (with the deauth
// extension that frees those phones), and MAC randomization both as the
// per-scan share and under named policies with chipset fingerprints — on a
// canteen run and on a roaming trio whose promoted far-field phones draw the
// same flags from their private streams.
func TestGoldenPhoneDraws(t *testing.T) {
	if testing.Short() {
		t.Skip("phone-draw golden is not -short friendly")
	}
	world := apiWorld(t)
	var b strings.Builder
	venueRuns := []struct {
		name string
		opts []cityhunter.RunOption
	}{
		{"per-scan share", nil},
		{"per-burst policy, composite linker", []cityhunter.RunOption{
			cityhunter.WithMACRandomization(0.5, cityhunter.RandomizePerBurst),
			cityhunter.WithLinker(cityhunter.LinkerComposite),
		}},
	}
	for _, run := range venueRuns {
		opts := append([]cityhunter.RunOption{
			cityhunter.WithRunSeed(1),
			cityhunter.WithCanaryClients(0.2),
			cityhunter.WithDeauth(0.3),
			cityhunter.WithRandomizedMACs(0.5),
		}, run.opts...)
		res, err := world.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
			cityhunter.LunchSlot, 10*time.Minute, opts...)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		fmt.Fprintf(&b, "canteen, %s: %v\n", run.name, res.Tally)
		fmt.Fprintf(&b, "  canary detections %d, deauths sent %d\n", res.CanaryDetections, res.Report.DeauthsSent)
		fmt.Fprintf(&b, "  links: %+v\n", res.Links)
	}

	sites := []cityhunter.Venue{cityhunter.StationVenue(), cityhunter.CanteenVenue(), cityhunter.MallVenue()}
	dep, err := world.DeploySitesContext(context.Background(), sites, cityhunter.CityHunter,
		cityhunter.LunchSlot, 30*time.Minute,
		cityhunter.WithRoaming(0.8),
		cityhunter.WithPopulationScale(3000),
		cityhunter.WithLODRadius(100),
		cityhunter.WithCityRoutes(world.City.RouteStops()),
		cityhunter.WithRunOptions(cityhunter.WithRunSeed(1), cityhunter.WithArrivalScale(0.3),
			cityhunter.WithCanaryClients(0.2),
			cityhunter.WithMACRandomization(0.5, cityhunter.RandomizeTimed)))
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	fmt.Fprintf(&b, "trio: %d roams\n", dep.Roams)
	for _, s := range dep.Sites {
		fmt.Fprintf(&b, "site %s: %v\n", s.Venue, s.Tally)
		fmt.Fprintf(&b, "  canary detections %d, links: %+v\n", s.CanaryDetections, s.Links)
	}
	ff := dep.FarField
	if ff == nil {
		t.Fatal("no far-field result")
	}
	fmt.Fprintf(&b, "far field: %d promoted, tally %v\n", ff.Promoted, ff.Tally)
	for _, o := range ff.Outcomes {
		fmt.Fprintf(&b, "pedestrian %+v\n", o)
	}
	checkGolden(t, "phones_seed1.txt", b.String())
}

// TestGoldenPcapSHA256 pins the sha256 of a single-run frame capture: any
// change to frame generation, delivery order or pcap encoding on the
// single-venue path shows up here.
func TestGoldenPcapSHA256(t *testing.T) {
	if testing.Short() {
		t.Skip("pcap golden is not -short friendly")
	}
	world := apiWorld(t)
	res, err := world.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter,
		cityhunter.LunchSlot, 3*time.Minute, cityhunter.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	sum := fmt.Sprintf("%x  canteen-cityhunter-slot4-3min-seed1.pcap\n", sha256.Sum256(buf.Bytes()))
	checkGolden(t, "pcap_seed1.sha256", sum)
}
