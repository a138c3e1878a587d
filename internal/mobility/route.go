package mobility

import (
	"fmt"
	"math/rand"
	"time"

	"cityhunter/internal/geo"
)

// RouteStop is one destination a city pedestrian can visit: a venue
// district with a position, an extent, a dwell model, and an
// attractiveness weight (the citygen hotspot attractiveness, reused here
// as the routing probability mass).
type RouteStop struct {
	// Pos is the district center in city coordinates.
	Pos geo.Point
	// Radius is the district extent; dwell positions are drawn inside it.
	// The district is typically much larger than an attacker's radio disk,
	// which is what keeps only a fraction of its visitors inside any
	// promotion boundary.
	Radius float64
	// Weight is the stop's share of routing probability mass.
	Weight float64
	// Dwell samples how long a visit lasts; nil selects a default
	// log-normal (median 12 min).
	Dwell DwellModel
}

// LegKind distinguishes route legs.
type LegKind int

// Leg kinds.
const (
	// LegTransit is a straight walk between two points.
	LegTransit LegKind = iota + 1
	// LegDwell is a stay at one point.
	LegDwell
)

// RouteLeg is one timed piece of a pedestrian's day: either a straight
// transit walk or a dwell at a fixed point. Start and End are absolute
// virtual times; From equals To for dwell legs.
type RouteLeg struct {
	Kind     LegKind
	From, To geo.Point
	Start    time.Duration
	End      time.Duration
	// Stop is the RouteStop index a dwell leg visits (-1 for transits).
	Stop int
}

// At returns the position at an absolute time within the leg (clamped).
func (l RouteLeg) At(t time.Duration) geo.Point {
	if l.Kind == LegDwell || l.End <= l.Start || t >= l.End {
		return l.To
	}
	if t <= l.Start {
		return l.From
	}
	f := float64(t-l.Start) / float64(l.End-l.Start)
	return l.From.Add(l.To.Sub(l.From).Scale(f))
}

// Route is a pedestrian's itinerary: alternating transit and dwell legs in
// time order, starting at the spawn time.
type Route struct {
	Legs []RouteLeg
}

// At returns the position at an absolute time, clamped to the route's ends.
func (r Route) At(t time.Duration) geo.Point {
	legs := r.Legs
	if len(legs) == 0 {
		return geo.Point{}
	}
	if t <= legs[0].Start {
		return legs[0].From
	}
	// Binary search for the leg containing t.
	lo, hi := 0, len(legs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if legs[mid].End < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return legs[lo].At(t)
}

// RouteModel samples city itineraries: a pedestrian enters the city, walks
// to a weighted sequence of stops, dwells at each, and ends its day after
// the last dwell. It generalises TransitModel — every walk between stops is
// a transit leg at a drawn speed — from one leg to a whole itinerary.
type RouteModel struct {
	// Transit is the walking model for the legs between stops; the zero
	// value selects DefaultTransit.
	Transit TransitModel
	// MeanVisits is the geometric mean number of stops visited (≥ 1);
	// 0 selects 2.
	MeanVisits float64
	// MaxVisits clips the itinerary length; 0 selects 5.
	MaxVisits int
}

// DefaultRoute returns the default city itinerary model.
func DefaultRoute() RouteModel {
	return RouteModel{Transit: DefaultTransit(), MeanVisits: 2, MaxVisits: 5}
}

// normalized fills the model's defaults.
func (m RouteModel) normalized() RouteModel {
	if m.Transit == (TransitModel{}) {
		m.Transit = DefaultTransit()
	}
	if m.MeanVisits < 1 {
		m.MeanVisits = 2
	}
	if m.MaxVisits <= 0 {
		m.MaxVisits = 5
	}
	return m
}

// Validate checks the model.
func (m RouteModel) Validate() error {
	mm := m.normalized()
	if err := mm.Transit.Validate(); err != nil {
		return err
	}
	if mm.MaxVisits < 1 {
		return fmt.Errorf("mobility: route max visits %d below 1", mm.MaxVisits)
	}
	return nil
}

// defaultStopDwell is used for stops without their own dwell model.
var defaultStopDwell DwellModel = StaticDwell{Median: 12 * time.Minute, Sigma: 0.5, Max: 45 * time.Minute}

// Sample draws one itinerary starting at entry at the given absolute time.
// Stops are chosen proportionally to weight, never repeating the previous
// stop when more than one is available. An empty stop list returns an empty
// route. All randomness comes from rng, so itineraries sampled from
// per-pedestrian streams are independent of sampling order.
func (m RouteModel) Sample(rng *rand.Rand, start time.Duration, entry geo.Point, stops []RouteStop) Route {
	m = m.normalized()
	if len(stops) == 0 {
		return Route{}
	}
	visits := 1
	for visits < m.MaxVisits && rng.Float64() >= 1/m.MeanVisits {
		visits++
	}
	var route Route
	pos := entry
	now := start
	prev := -1
	for v := 0; v < visits; v++ {
		si := sampleStop(rng, stops, prev)
		stop := stops[si]
		dest := StaticPos(rng, stop.Pos, stop.Radius)
		walk := m.Transit.Path(rng, pos, dest)
		route.Legs = append(route.Legs, RouteLeg{
			Kind: LegTransit, From: pos, To: dest,
			Start: now, End: now + walk.Duration, Stop: -1,
		})
		now += walk.Duration
		dm := stop.Dwell
		if dm == nil {
			dm = defaultStopDwell
		}
		dwell := dm.SampleDwell(rng)
		route.Legs = append(route.Legs, RouteLeg{
			Kind: LegDwell, From: dest, To: dest,
			Start: now, End: now + dwell, Stop: si,
		})
		now += dwell
		pos = dest
		prev = si
	}
	return route
}

// sampleStop draws a stop index proportionally to weight, excluding prev
// when another stop exists.
func sampleStop(rng *rand.Rand, stops []RouteStop, prev int) int {
	total := 0.0
	for i, s := range stops {
		if i == prev && len(stops) > 1 {
			continue
		}
		if s.Weight > 0 {
			total += s.Weight
		}
	}
	if total <= 0 {
		// Unweighted: uniform among the eligible stops.
		i := rng.Intn(len(stops))
		if i == prev && len(stops) > 1 {
			i = (i + 1) % len(stops)
		}
		return i
	}
	x := rng.Float64() * total
	last := 0
	for i, s := range stops {
		if (i == prev && len(stops) > 1) || s.Weight <= 0 {
			continue
		}
		if x < s.Weight {
			return i
		}
		x -= s.Weight
		last = i
	}
	return last
}
