package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cityhunter"
)

// MultiSiteResult measures the repository's city-scale extension: several
// attacker sites deployed in one city, phones roaming between them, and a
// knowledge plane joining the hunters' databases. The paper deploys its four
// venues one at a time (§V); this experiment hunts them simultaneously and
// asks how much sharing the City-Hunter database across sites is worth.
type MultiSiteResult struct {
	// Venues names the deployed sites in order.
	Venues []string
	// Planes holds one city-wide deployment per knowledge plane.
	Planes []MultiSitePoint
	// PairIsolated/PairShared pool the canteen+passage two-site
	// deployment over PairSeeds seeds under each plane — the same crowd
	// hunted by independent sites versus one shared database.
	PairIsolated cityhunter.Tally
	PairShared   cityhunter.Tally
	PairSeeds    int
}

// MultiSitePoint is one knowledge plane's city-wide measurement.
type MultiSitePoint struct {
	Plane string
	// Tally pools every phone across the four sites.
	Tally cityhunter.Tally
	// Roams counts completed inter-site walks.
	Roams int
	// SiteTallies breaks the pool down per site, in Venues order.
	SiteTallies []cityhunter.Tally
}

// String renders the multi-site report.
func (r *MultiSiteResult) String() string {
	var b strings.Builder
	b.WriteString("Multi-site deployment (extension) — hunting the paper's four venues at once\n")
	for _, p := range r.Planes {
		fmt.Fprintf(&b, "%-13s pooled h_b = %5.1f%%  (%d roams; %v)\n",
			p.Plane+":", pct(p.Tally.BroadcastHitRate()), p.Roams, p.Tally)
		for i, st := range p.SiteTallies {
			fmt.Fprintf(&b, "    %-18s h_b = %5.1f%%  (%d phones)\n",
				r.Venues[i], pct(st.BroadcastHitRate()), st.Total)
		}
	}
	fmt.Fprintf(&b, "canteen+passage over %d seeds — isolated: %d/%d broadcast captures, shared: %d/%d\n",
		r.PairSeeds,
		r.PairIsolated.ConnectedBroadcast, r.PairIsolated.Broadcast,
		r.PairShared.ConnectedBroadcast, r.PairShared.Broadcast)
	if r.PairShared.ConnectedBroadcast > r.PairIsolated.ConnectedBroadcast {
		b.WriteString("shared knowledge beats isolated sites: a roamed phone gets fresh SSIDs, not repeats\n")
	} else {
		b.WriteString("shared knowledge did not beat isolated sites at this scale (roams need time to complete)\n")
	}
	return b.String()
}

// multiSiteRoam is the roaming probability every deployment here uses.
const multiSiteRoam = 0.5

// MultiSite runs the city-scale deployment comparison. The four paper
// venues are hunted simultaneously for an hour-long lunch slot under each
// knowledge plane, then the canteen+passage pair is replayed over several
// seeds to isolate the shared-database gain on the same crowds. Roaming
// phones walk real inter-venue distances (the passage and railway station
// are a minute apart; the canteen is a 26-minute walk), so short
// SlotDurations complete few roams and the planes converge.
func MultiSite(ctx context.Context, w *cityhunter.World, o Options) (*MultiSiteResult, error) {
	city := []cityhunter.Venue{
		cityhunter.PassageVenue(),
		cityhunter.CanteenVenue(),
		cityhunter.MallVenue(),
		cityhunter.StationVenue(),
	}
	res := &MultiSiteResult{}
	for _, v := range city {
		res.Venues = append(res.Venues, v.Name)
	}

	planes := []cityhunter.KnowledgePlane{
		cityhunter.Isolated, cityhunter.PeriodicSync, cityhunter.Shared,
	}
	for _, plane := range planes {
		// Offset 90 for every plane: each plane hunts the same city crowd.
		dep, err := w.DeploySitesContext(ctx, city, cityhunter.CityHunter,
			cityhunter.LunchSlot, o.slotDuration(),
			cityhunter.WithKnowledgePlane(plane),
			cityhunter.WithSyncPeriod(5*time.Minute),
			cityhunter.WithRoaming(multiSiteRoam),
			cityhunter.WithRunOptions(o.runOpts(w, 90)...))
		if err != nil {
			return nil, fmt.Errorf("multi-site %s: %w", plane, err)
		}
		point := MultiSitePoint{Plane: plane.String(), Tally: dep.Tally, Roams: dep.Roams}
		for _, site := range dep.Sites {
			point.SiteTallies = append(point.SiteTallies, site.Tally)
		}
		res.Planes = append(res.Planes, point)
	}

	pair := []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.PassageVenue()}
	res.PairSeeds = 3
	for i := 0; i < res.PairSeeds; i++ {
		opts := o.runOpts(w, 91+int64(i))
		for _, plane := range []cityhunter.KnowledgePlane{cityhunter.Isolated, cityhunter.Shared} {
			dep, err := w.DeploySitesContext(ctx, pair, cityhunter.CityHunter,
				cityhunter.LunchSlot, o.slotDuration(),
				cityhunter.WithKnowledgePlane(plane),
				cityhunter.WithRoaming(multiSiteRoam),
				cityhunter.WithRunOptions(opts...))
			if err != nil {
				return nil, fmt.Errorf("multi-site pair %s seed %d: %w", plane, i, err)
			}
			if plane == cityhunter.Isolated {
				res.PairIsolated = addTally(res.PairIsolated, dep.Tally)
			} else {
				res.PairShared = addTally(res.PairShared, dep.Tally)
			}
		}
	}
	return res, nil
}

// addTally pools two tallies field-by-field.
func addTally(a, b cityhunter.Tally) cityhunter.Tally {
	a.Total += b.Total
	a.Direct += b.Direct
	a.Broadcast += b.Broadcast
	a.ConnectedDirect += b.ConnectedDirect
	a.ConnectedBroadcast += b.ConnectedBroadcast
	return a
}
