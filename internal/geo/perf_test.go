package geo

import "testing"

// TestGridQueryAllocs pins the spatial queries every attacker engine and
// far-field window runs: a 500 m radius query (about 150 of 12000 points)
// and the nearest-100 query.
func TestGridQueryAllocs(t *testing.T) {
	g, pts := benchIndex(t, 12000)
	i := 0
	within := testing.AllocsPerRun(200, func() {
		i++
		g.WithinRadius(pts[i%len(pts)], 500)
	})
	if within > 9 {
		t.Errorf("WithinRadius allocates %.0f/op, want ≤ 9", within)
	}
	nearest := testing.AllocsPerRun(200, func() {
		i++
		g.Nearest(pts[i%len(pts)], 100)
	})
	// Nearest sorts in a sync.Pool buffer.
	if nearest > 8 && !raceEnabled {
		t.Errorf("Nearest(100) allocates %.0f/op, want ≤ 8", nearest)
	}
}
