package cityhunter_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"cityhunter"
)

// TestDeployWithPopulationScale exercises the public level-of-detail
// surface: a far-field population routed through citygen districts, with
// three attacked sites, reporting promoted-client accounting.
func TestDeployWithPopulationScale(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale deployment run")
	}
	w := apiWorld(t)
	sites := []cityhunter.Venue{
		cityhunter.StationVenue(),
		cityhunter.CanteenVenue(),
		cityhunter.MallVenue(),
	}
	res, err := w.DeploySitesContext(context.Background(), sites, cityhunter.CityHunter,
		cityhunter.LunchSlot, 45*time.Minute,
		cityhunter.WithRunOptions(cityhunter.WithArrivalScale(0.2)),
		cityhunter.WithPopulationScale(8000),
		cityhunter.WithLODRadius(80),
		cityhunter.WithCityRoutes(w.City.RouteStops()),
	)
	if err != nil {
		t.Fatal(err)
	}
	ff := res.FarField
	if ff == nil {
		t.Fatal("no far-field result on a scaled deployment")
	}
	if ff.Pedestrians != 8000 {
		t.Errorf("pedestrians = %d, want 8000", ff.Pedestrians)
	}
	if len(ff.Sites) != len(sites) {
		t.Fatalf("%d far-field site entries for %d sites", len(ff.Sites), len(sites))
	}
	// The attacked venues sit in real citygen districts, so some of the
	// 3000 pedestrians routed through a boundary within ten minutes.
	if ff.Promoted == 0 {
		t.Error("no pedestrian promoted despite district routing")
	}
	if ff.PeakPromoted > ff.Promoted {
		t.Errorf("peak promoted %d exceeds distinct promoted %d", ff.PeakPromoted, ff.Promoted)
	}

	// Options compose in any order: scale after radius works too, and a
	// deployment without scale has no far-field result at all.
	res2, err := w.DeploySitesContext(context.Background(), sites[:1], cityhunter.CityHunter,
		cityhunter.LunchSlot, 2*time.Minute,
		cityhunter.WithRunOptions(cityhunter.WithArrivalScale(0.2)),
		cityhunter.WithLODRadius(80),
		cityhunter.WithPopulationScale(100),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FarField == nil || res2.FarField.Pedestrians != 100 {
		t.Errorf("composed options lost the population: %+v", res2.FarField)
	}
	plain, err := w.DeploySitesContext(context.Background(), sites[:1], cityhunter.CityHunter,
		cityhunter.LunchSlot, time.Minute,
		cityhunter.WithRunOptions(cityhunter.WithArrivalScale(0.2)))
	if err != nil {
		t.Fatal(err)
	}
	if plain.FarField != nil {
		t.Error("deployment without population scale grew a far-field result")
	}
}

// TestCityScaleCityConfig checks the dozen-district city variant and its
// attractiveness-weighted routing stops.
func TestCityScaleCityConfig(t *testing.T) {
	cfg := cityhunter.CityScaleCityConfig(5)
	if len(cfg.Hotspots) < 12 {
		t.Fatalf("city-scale config has %d districts, want >= 12", len(cfg.Hotspots))
	}
	w, err := cityhunter.NewWorld(cityhunter.WithSeed(5), cityhunter.WithCityConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	stops := w.City.RouteStops()
	if len(stops) != len(cfg.Hotspots) {
		t.Fatalf("%d route stops for %d districts", len(stops), len(cfg.Hotspots))
	}
	for i, s := range stops {
		if s.Weight <= 0 || s.Radius <= 0 {
			t.Errorf("stop %d (%s) degenerate: weight %v radius %v",
				i, cfg.Hotspots[i].Name, s.Weight, s.Radius)
		}
	}
}

// TestDeploymentPartitionsIdentical runs the benchmark's city deployment —
// City-Hunter at the station, canteen and mall on the calibrated default
// world, 30 % roaming, a 4000-pedestrian far field promoted within 80 m —
// on one goroutine and on one per site group. The partition count changes
// wall time only, so the two results must be deeply equal.
func TestDeploymentPartitionsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two city-scale deployment runs")
	}
	w, err := cityhunter.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	run := func(partitions int) *cityhunter.DeploymentResult {
		sites := []cityhunter.Venue{cityhunter.StationVenue(), cityhunter.CanteenVenue(), cityhunter.MallVenue()}
		res, err := w.DeploySitesContext(context.Background(), sites, cityhunter.CityHunter, cityhunter.LunchSlot, 10*time.Minute,
			cityhunter.WithRoaming(0.3),
			cityhunter.WithPopulationScale(4000),
			cityhunter.WithLODRadius(80),
			cityhunter.WithCityRoutes(w.City.RouteStops()),
			cityhunter.WithPartitions(partitions),
			cityhunter.WithRunOptions(cityhunter.WithRunSeed(1001)))
		if err != nil {
			t.Fatalf("partitions=%d: %v", partitions, err)
		}
		return res
	}
	one, auto := run(0), run(cityhunter.AutoPartitions)
	if one.FarField == nil || one.FarField.Promotions == 0 {
		t.Fatal("the far field never promoted; the comparison exercises nothing")
	}
	if !reflect.DeepEqual(one, auto) {
		t.Errorf("partitions=0 and partitions=auto diverge: tallies %+v vs %+v, roams %d vs %d",
			one.Tally, auto.Tally, one.Roams, auto.Roams)
	}
}
