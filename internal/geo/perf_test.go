package geo

import (
	"math"
	"testing"
)

// TestGridQueryAllocs pins the spatial query attacker seeding runs: a walk
// by distance from a point among 12000, stopped after the nearest 100.
func TestGridQueryAllocs(t *testing.T) {
	g, pts := benchIndex(t, 12000)
	i, n := 0, 0
	next := func(int) bool { n++; return n < 100 }
	walk := testing.AllocsPerRun(200, func() {
		i, n = i+1, 0
		g.VisitByDistance(pts[i%len(pts)], 125, 8000*math.Sqrt2+125, next)
	})
	// The walk sorts in a sync.Pool buffer, which the race detector
	// drops at random.
	if walk > 0 && !raceEnabled {
		t.Errorf("VisitByDistance to the nearest 100 allocates %.0f/op, want 0", walk)
	}
}
