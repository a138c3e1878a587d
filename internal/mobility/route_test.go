package mobility

import (
	"math/rand"
	"testing"
	"time"

	"cityhunter/internal/geo"
)

func cityStops() []RouteStop {
	return []RouteStop{
		{Pos: geo.Pt(0, 0), Radius: 200, Weight: 3},
		{Pos: geo.Pt(1500, 0), Radius: 300, Weight: 1},
		{Pos: geo.Pt(0, 2000), Radius: 250, Weight: 2},
	}
}

func TestRouteModelValidate(t *testing.T) {
	if err := DefaultRoute().Validate(); err != nil {
		t.Errorf("default route invalid: %v", err)
	}
	if err := (RouteModel{}).Validate(); err != nil {
		t.Errorf("zero route model should normalize, got %v", err)
	}
	bad := RouteModel{Transit: TransitModel{SpeedMin: 2, SpeedMax: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("inverted transit speeds accepted")
	}
}

func TestRouteSampleShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := DefaultRoute()
	stops := cityStops()
	entry := geo.Pt(-3000, -3000)
	start := 10 * time.Minute
	for i := 0; i < 200; i++ {
		r := m.Sample(rng, start, entry, stops)
		if len(r.Legs) == 0 || len(r.Legs)%2 != 0 {
			t.Fatalf("route has %d legs, want positive even count", len(r.Legs))
		}
		if len(r.Legs)/2 > m.MaxVisits {
			t.Fatalf("route visits %d stops, max %d", len(r.Legs)/2, m.MaxVisits)
		}
		if r.Legs[0].Start != start {
			t.Fatalf("route starts at %v, want %v", r.Legs[0].Start, start)
		}
		if r.Legs[0].From != entry {
			t.Fatalf("route enters at %v, want %v", r.Legs[0].From, entry)
		}
		prevStop := -1
		for j, l := range r.Legs {
			if l.End <= l.Start {
				t.Fatalf("leg %d not forward in time: [%v, %v]", j, l.Start, l.End)
			}
			if j > 0 && l.Start != r.Legs[j-1].End {
				t.Fatalf("leg %d starts at %v, previous ended %v", j, l.Start, r.Legs[j-1].End)
			}
			if j%2 == 0 {
				if l.Kind != LegTransit || l.Stop != -1 {
					t.Fatalf("leg %d: want transit with stop -1, got kind %v stop %d", j, l.Kind, l.Stop)
				}
			} else {
				if l.Kind != LegDwell || l.From != l.To {
					t.Fatalf("leg %d: want stationary dwell, got kind %v %v -> %v", j, l.Kind, l.From, l.To)
				}
				if l.Stop < 0 || l.Stop >= len(stops) {
					t.Fatalf("leg %d dwell stop %d out of range", j, l.Stop)
				}
				s := stops[l.Stop]
				if l.To.Dist(s.Pos) > s.Radius+1e-9 {
					t.Fatalf("dwell at %v is %v from stop %d center, radius %v",
						l.To, l.To.Dist(s.Pos), l.Stop, s.Radius)
				}
				if len(stops) > 1 && l.Stop == prevStop {
					t.Fatalf("immediate repeat of stop %d", l.Stop)
				}
				prevStop = l.Stop
			}
		}
	}
}

func TestRouteSampleDeterministic(t *testing.T) {
	stops := cityStops()
	a := DefaultRoute().Sample(rand.New(rand.NewSource(7)), 0, geo.Pt(100, 100), stops)
	b := DefaultRoute().Sample(rand.New(rand.NewSource(7)), 0, geo.Pt(100, 100), stops)
	if len(a.Legs) != len(b.Legs) {
		t.Fatalf("same seed, different leg counts: %d vs %d", len(a.Legs), len(b.Legs))
	}
	for i := range a.Legs {
		if a.Legs[i] != b.Legs[i] {
			t.Fatalf("leg %d differs: %+v vs %+v", i, a.Legs[i], b.Legs[i])
		}
	}
}

func TestRouteAtInterpolatesAndClamps(t *testing.T) {
	r := Route{Legs: []RouteLeg{
		{Kind: LegTransit, From: geo.Pt(0, 0), To: geo.Pt(100, 0),
			Start: time.Minute, End: 2 * time.Minute, Stop: -1},
		{Kind: LegDwell, From: geo.Pt(100, 0), To: geo.Pt(100, 0),
			Start: 2 * time.Minute, End: 10 * time.Minute, Stop: 0},
		{Kind: LegTransit, From: geo.Pt(100, 0), To: geo.Pt(100, 50),
			Start: 10 * time.Minute, End: 11 * time.Minute, Stop: -1},
	}}
	cases := []struct {
		t    time.Duration
		want geo.Point
	}{
		{0, geo.Pt(0, 0)},                    // before start clamps to origin
		{time.Minute, geo.Pt(0, 0)},          // first instant
		{90 * time.Second, geo.Pt(50, 0)},    // mid-transit
		{5 * time.Minute, geo.Pt(100, 0)},    // dwelling
		{630 * time.Second, geo.Pt(100, 25)}, // second transit midpoint
		{time.Hour, geo.Pt(100, 50)},         // past end clamps to final stop
	}
	for _, c := range cases {
		if got := r.At(c.t); got.Dist(c.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if start, end := r.Legs[0].Start, r.Legs[len(r.Legs)-1].End; start != time.Minute || end != 11*time.Minute {
		t.Errorf("span [%v, %v], want [1m, 11m]", start, end)
	}
}

func TestRouteEmpty(t *testing.T) {
	var r Route
	if got := r.At(time.Hour); got != (geo.Point{}) {
		t.Errorf("empty route At = %v, want origin", got)
	}
	rng := rand.New(rand.NewSource(1))
	if s := DefaultRoute().Sample(rng, 0, geo.Pt(1, 1), nil); len(s.Legs) != 0 {
		t.Errorf("sampling with no stops yielded %d legs", len(s.Legs))
	}
}

func TestRouteStopWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stops := []RouteStop{
		{Pos: geo.Pt(0, 0), Weight: 9},
		{Pos: geo.Pt(1000, 0), Weight: 1},
	}
	counts := [2]int{}
	for i := 0; i < 4000; i++ {
		counts[sampleStop(rng, stops, -1)]++
	}
	frac := float64(counts[0]) / 4000
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("stop 0 drawn %.3f of the time, want ~0.9", frac)
	}
	// prev exclusion: with two stops the other one is forced.
	for i := 0; i < 50; i++ {
		if sampleStop(rng, stops, 0) != 1 {
			t.Fatal("prev stop repeated despite alternative")
		}
	}
	// Single stop: prev exclusion must not deadlock.
	one := stops[:1]
	if sampleStop(rng, one, 0) != 0 {
		t.Error("single-stop route must reuse the only stop")
	}
	// All-zero weights fall back to uniform.
	flat := []RouteStop{{Pos: geo.Pt(0, 0)}, {Pos: geo.Pt(1, 0)}, {Pos: geo.Pt(2, 0)}}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[sampleStop(rng, flat, -1)] = true
	}
	if len(seen) != 3 {
		t.Errorf("uniform fallback visited %d of 3 stops", len(seen))
	}
}
