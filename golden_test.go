// Golden-equivalence tests: the seed-1 outputs captured before the
// scenario.Runner decomposition (testdata/golden/*) must stay byte-identical
// through any refactor of the run path. Three surfaces are pinned, each at
// worker counts 1 and 8 where a pool is involved:
//
//   - the reduced-scale experiments grid (Figures 5+6 rendering),
//   - campaign mode (per-spec rows plus the aggregate line, as the CLI
//     prints them),
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
