package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cityhunter"
)

// CityScaleResult measures the level-of-detail extension: a dozen-district
// city carrying a six-figure statistical pedestrian population, three
// attacked districts, and promotion to full client fidelity only inside
// each site's radio-range boundary. The paper's deployment watched four
// venues one at a time (§V); this generator hunts a whole synthetic city at
// once and reports what fraction of it ever mattered at full fidelity.
type CityScaleResult struct {
	// Pedestrians is the far-field population size.
	Pedestrians int
	// Districts counts the routing districts; the far-field crowd walks
	// between all of them, weighted by attractiveness.
	Districts int
	// SiteNames names the attacked districts, in FarField.Sites order.
	SiteNames []string
	// FarField is the tier accounting: distinct promoted pedestrians,
	// promotion/demotion churn, the peak concurrent full-fidelity load,
	// per-site promotions and hits, and the promoted crowd's tally.
	FarField cityhunter.FarFieldResult
	// VenueTally pools the classic venue populations at the attacked
	// sites — the paper-scale crowds, untouched by the far field.
	VenueTally cityhunter.Tally
	// Duration is the simulated virtual time.
	Duration time.Duration
}

// String renders the city-scale report.
func (r *CityScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "City scale (extension) — %d far-field pedestrians across %d districts, %d attacked, %v virtual\n",
		r.Pedestrians, r.Districts, len(r.SiteNames), r.Duration)
	ff := r.FarField
	promoPct := 0.0
	if ff.Pedestrians > 0 {
		promoPct = 100 * float64(ff.Promoted) / float64(ff.Pedestrians)
	}
	fmt.Fprintf(&b, "promoted %d (%.2f%% of the city), %d promotions / %d demotions, peak %d concurrent full-fidelity clients\n",
		ff.Promoted, promoPct, ff.Promotions, ff.Demotions, ff.PeakPromoted)
	for i, s := range ff.Sites {
		hitPct := 0.0
		if s.Promotions > 0 {
			hitPct = 100 * float64(s.Hits) / float64(s.Promotions)
		}
		fmt.Fprintf(&b, "    %-18s %5d promotions, %4d hits (%.1f%%)\n",
			r.SiteNames[i], s.Promotions, s.Hits, hitPct)
	}
	fmt.Fprintf(&b, "far-field capture: h_b = %5.1f%%  (%v)\n",
		pct(ff.Tally.BroadcastHitRate()), ff.Tally)
	fmt.Fprintf(&b, "venue crowds at the attacked sites: h_b = %5.1f%%  (%v)\n",
		pct(r.VenueTally.BroadcastHitRate()), r.VenueTally)
	return b.String()
}

// cityScalePedestrians is the full-scale far-field population. Options'
// ArrivalScale shrinks it for reduced-scale harness runs, the same lever
// the venue populations use.
const cityScalePedestrians = 100_000

// CityScale runs the level-of-detail city deployment: the dozen-district
// CityScaleCityConfig city, a far-field crowd routed by district
// attractiveness, and attackers at the railway station, canteen and mall
// districts (whose venues coincide with citygen hotspot centers). Only
// pedestrians crossing a site's promotion boundary are simulated at frame
// fidelity; everyone else stays arrival/route state, which is what lets the
// full 100k-pedestrian hour finish in minutes.
func CityScale(ctx context.Context, w *cityhunter.World, o Options) (*CityScaleResult, error) {
	pedestrians := cityScalePedestrians
	if o.ArrivalScale > 0 && o.ArrivalScale < 1 {
		pedestrians = int(float64(pedestrians) * o.ArrivalScale)
		if pedestrians < 200 {
			pedestrians = 200
		}
	}

	// A dedicated dozen-district world: the far-field crowd needs the
	// extra districts to route through, and the shared experiments world
	// keeps its default city for every other generator.
	seed := o.seed(w, 95)
	city, err := cityhunter.NewWorld(
		cityhunter.WithSeed(seed),
		cityhunter.WithCityConfig(cityhunter.CityScaleCityConfig(seed)),
	)
	if err != nil {
		return nil, fmt.Errorf("city-scale world: %w", err)
	}

	sites := []cityhunter.Venue{
		cityhunter.StationVenue(),
		cityhunter.CanteenVenue(),
		cityhunter.MallVenue(),
	}
	dep, err := city.DeploySitesContext(ctx, sites, cityhunter.CityHunter,
		cityhunter.LunchSlot, o.slotDuration(),
		cityhunter.WithPopulationScale(pedestrians),
		cityhunter.WithCityRoutes(city.City.RouteStops()),
		cityhunter.WithRunOptions(o.runOpts(city, 95)...))
	if err != nil {
		return nil, fmt.Errorf("city-scale deployment: %w", err)
	}
	if dep.FarField == nil {
		return nil, fmt.Errorf("city-scale deployment returned no far-field accounting")
	}

	res := &CityScaleResult{
		Pedestrians: pedestrians,
		Districts:   len(city.City.RouteStops()),
		FarField:    *dep.FarField,
		VenueTally:  dep.Tally,
		Duration:    o.slotDuration(),
	}
	for _, v := range sites {
		res.SiteNames = append(res.SiteNames, v.Name)
	}
	return res, nil
}
