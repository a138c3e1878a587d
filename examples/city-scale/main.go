// City-scale hunting with the level-of-detail population: a dozen-district
// synthetic city carries 100,000 far-field pedestrians who exist only as
// arrival/route state — until one of them walks into the promotion boundary
// around an attacker site, where it is promoted to a full-fidelity phone
// (scanning, probing, associating) and demoted back on exit. Three sites
// hunt at once; the whole city hour finishes in well under five minutes
// because only the promoted minority ever touches the radio medium.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"cityhunter"
)

func main() {
	seed := int64(1)
	world, err := cityhunter.NewWorld(
		cityhunter.WithSeed(seed),
		cityhunter.WithCityConfig(cityhunter.CityScaleCityConfig(seed)),
	)
	if err != nil {
		log.Fatal(err)
	}

	sites := []cityhunter.Venue{
		cityhunter.StationVenue(),
		cityhunter.CanteenVenue(),
		cityhunter.MallVenue(),
	}
	stops := world.City.RouteStops()
	fmt.Printf("city: %d districts, 3 attacked; far field: 100000 pedestrians\n\n", len(stops))

	start := time.Now()
	res, err := world.DeploySitesContext(context.Background(), sites, cityhunter.CityHunter,
		cityhunter.LunchSlot, time.Hour,
		cityhunter.WithPopulationScale(100_000),
		cityhunter.WithLODRadius(80),
		cityhunter.WithCityRoutes(stops))
	if err != nil {
		log.Fatal(err)
	}

	ff := res.FarField
	fmt.Printf("one virtual hour simulated in %v wall clock\n", time.Since(start).Truncate(time.Millisecond))
	fmt.Printf("promoted %d of %d pedestrians (%.2f%%), peak %d concurrent full-fidelity clients\n\n",
		ff.Promoted, ff.Pedestrians, 100*float64(ff.Promoted)/float64(ff.Pedestrians), ff.PeakPromoted)

	fmt.Printf("%-18s %10s %6s %8s\n", "site", "promotions", "hits", "hit rate")
	for _, s := range ff.Sites {
		rate := 0.0
		if s.Promotions > 0 {
			rate = 100 * float64(s.Hits) / float64(s.Promotions)
		}
		fmt.Printf("%-18s %10d %6d %7.1f%%\n", s.Name, s.Promotions, s.Hits, rate)
	}
	fmt.Printf("\nfar-field capture: h_b = %.1f%% over %d promoted phones\n",
		100*ff.Tally.BroadcastHitRate(), ff.Tally.Total)
	fmt.Printf("venue crowds at the attacked sites (classic tier): %v\n", res.Tally)
}
