package scenario

import (
	"sort"
	"time"

	"cityhunter/internal/mobility"
	"cityhunter/internal/obs"
)

// Site groups are the unit of deployment execution. Two sites share a group
// when anything couples them faster than a walk between them:
//
//   - their radio ranges overlap (RF gap ≤ 0), so a frame can reach both;
//   - their promotion boundaries overlap, so one far-field pedestrian can
//     be promoted near both at once (only with a far field to promote);
//   - the knowledge plane is Shared, so one database sits behind them all.
//
// Inside a group, sites share one engine, radio medium, RNG stream and MAC
// allocator, and everything between them is an ordinary engine event.
// Between groups, the only traffic is roaming arrivals, far-field handoffs
// and knowledge syncs, each at least one lookahead in the future, so the
// groups can run as partitions of a sim.Partitioned coordinator. How groups
// map onto goroutines changes nothing but wall time (DESIGN §5.13).

// siteGroups joins the sites into site groups by union-find and returns
// each site's group index, groups numbered by their lowest site index, and
// the group count.
func siteGroups(sites []Venue, knowledge KnowledgePlane, ff *FarFieldConfig) ([]int, int) {
	root := make([]int, len(sites))
	for i := range root {
		root[i] = i
	}
	find := func(i int) int {
		for root[i] != i {
			root[i] = root[root[i]]
			i = root[i]
		}
		return i
	}
	promo := ff.boundary()
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			dist := sites[i].Position.Dist(sites[j].Position)
			if knowledge == Shared || dist <= sites[i].RadioRange+sites[j].RadioRange ||
				(promo > 0 && dist <= 2*promo) {
				// The lower root wins, so every root is its group's lowest site.
				a, b := find(i), find(j)
				root[max(a, b)] = min(a, b)
			}
		}
	}
	groupOf := make([]int, len(sites))
	n := 0
	for i := range sites {
		if r := find(i); r == i {
			groupOf[i] = n
			n++
		} else {
			groupOf[i] = groupOf[r]
		}
	}
	return groupOf, n
}

// groupLookahead derives the coordinator's lookahead from the geometry
// between sites in different groups. Two mechanisms carry state across
// groups, and each needs its minimum transfer latency:
//
//   - Roaming transits: every walk between groups covers at least their RF
//     gap, and mobility.TransitModel floors leg duration at one second, so
//     every arrival is posted at least max(1s, gap/maxSpeed) ahead.
//   - Level-of-detail handoffs: a pedestrian demoted at one group's
//     promotion boundary walks at least the boundary gap before promoting
//     in another group, so the window must not exceed
//     boundaryGap/maxSpeed for the demote and the re-promote to fall in
//     different windows (the barrier between them hands the snapshot
//     across safely).
//
// Both gaps are positive by construction: siteGroups joins any pair whose
// gap is not. With a single group there is no cross-group traffic at all,
// and the whole run is one window.
func groupLookahead(sites []Venue, groupOf []int, transit mobility.TransitModel, ff *FarFieldConfig, duration time.Duration) time.Duration {
	look := duration
	promo := ff.boundary()
	route := mobility.DefaultTransit()
	if promo > 0 && ff.Route.Transit != (mobility.TransitModel{}) {
		route = ff.Route.Transit
	}
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if groupOf[i] == groupOf[j] {
				continue
			}
			dist := sites[i].Position.Dist(sites[j].Position)
			gap := dist - sites[i].RadioRange - sites[j].RadioRange
			look = min(look, max(time.Second, time.Duration(gap/transit.SpeedMax*float64(time.Second))))
			if promo > 0 {
				look = min(look, time.Duration((dist-2*promo)/route.SpeedMax*float64(time.Second)))
			}
		}
	}
	return look
}

// partitionCount resolves the configured partition count against the group
// count: 0 and 1 mean one goroutine, AutoPartitions one per group, and an
// explicit count is clamped to the number of groups (an empty partition
// would only add barrier latency).
func partitionCount(requested, ngroups int) int {
	if requested == AutoPartitions || requested > ngroups {
		return ngroups
	}
	return max(requested, 1)
}

// mergeJournals folds the groups' journals into one, ordered by virtual
// time with group order breaking ties — both independent of how groups
// map onto goroutines. A single journal is returned as is, and so is a nil
// one (the flight recorder is off).
func mergeJournals(capacity int, journals []*obs.Journal) *obs.Journal {
	if len(journals) == 1 || journals[0] == nil {
		return journals[0]
	}
	var all []obs.Event
	for _, j := range journals {
		all = append(all, j.Events()...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	merged := obs.NewJournal(capacity)
	for _, e := range all {
		merged.Record(e.At, e.Type, e.Actor, e.Detail)
	}
	return merged
}
