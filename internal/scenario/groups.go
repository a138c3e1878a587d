package scenario

import (
	"time"

	"cityhunter/internal/mobility"
)

// Site groups are the unit of deployment execution. Two sites share a group
// when anything couples them faster than a walk between them:
//
//   - their radio ranges overlap (RF gap ≤ 0), so a frame can reach both;
//   - their promotion boundaries lie less than minLookahead's walk apart
//     (handoffLatency), so one far-field pedestrian can be promoted near
//     both at once or within a sliver of a window (only with a far field
//     to promote);
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
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			dist := sites[i].Position.Dist(sites[j].Position)
			handoff, farField := handoffLatency(ff, dist)
			if knowledge == Shared || dist <= sites[i].RadioRange+sites[j].RadioRange ||
				farField && handoff < minLookahead {
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
//     in another group, so the window must not exceed handoffLatency for
//     the demote and the re-promote to fall in different windows (the
//     barrier between them hands the snapshot across safely).
//
// Both terms are at least minLookahead: the transit term by its floor, the
// handoff term because siteGroups joins any pair whose handoff is shorter.
// With a single group there is no cross-group traffic at all, and the
// whole run is one window.
func groupLookahead(sites []Venue, groupOf []int, transit mobility.TransitModel, ff *FarFieldConfig, duration time.Duration) time.Duration {
	look := duration
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if groupOf[i] == groupOf[j] {
				continue
			}
			dist := sites[i].Position.Dist(sites[j].Position)
			gap := dist - sites[i].RadioRange - sites[j].RadioRange
			look = min(look, max(minLookahead, time.Duration(gap/transit.SpeedMax*float64(time.Second))))
			if handoff, farField := handoffLatency(ff, dist); farField {
				look = min(look, handoff)
			}
		}
	}
	return look
}

// minLookahead is the shortest window two site groups may force: the
// one-second floor mobility.TransitModel puts under every leg. A pair of
// sites whose far-field handoff is quicker shares a group instead.
const minLookahead = time.Second

// handoffLatency returns the least time a far-field pedestrian takes to
// walk from the promotion boundary of one site to that of another dist
// metres away — the boundary gap at the route's top speed, not positive
// when the boundaries overlap — and false when there is no far field.
func handoffLatency(ff *FarFieldConfig, dist float64) (time.Duration, bool) {
	promo := ff.boundary()
	if promo <= 0 {
		return 0, false
	}
	route := mobility.DefaultTransit()
	if ff.Route.Transit != (mobility.TransitModel{}) {
		route = ff.Route.Transit
	}
	return time.Duration((dist - 2*promo) / route.SpeedMax * float64(time.Second)), true
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
