package geo

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Point
		want Point
	}{
		{name: "add", got: Pt(1, 2).Add(Pt(3, 4)), want: Pt(4, 6)},
		{name: "sub", got: Pt(1, 2).Sub(Pt(3, 4)), want: Pt(-2, -2)},
		{name: "scale", got: Pt(1, 2).Scale(2), want: Pt(2, 4)},
		{name: "scale zero", got: Pt(1, 2).Scale(0), want: Pt(0, 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := Pt(1, 1).Dist(Pt(1, 1)); d != 0 {
		t.Errorf("Dist to self = %v, want 0", d)
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsInf(ax, 0) || math.IsNaN(ay) || math.IsInf(ay, 0) ||
			math.IsNaN(bx) || math.IsInf(bx, 0) || math.IsNaN(by) || math.IsInf(by, 0) {
			return true
		}
		// Keep magnitudes small enough that squaring stays finite.
		a := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		b := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		d := a.Dist(b)
		return math.Abs(d*d-a.Dist2(b)) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnit(t *testing.T) {
	u := Pt(3, 4).Unit()
	if math.Abs(u.Norm()-1) > 1e-12 {
		t.Errorf("Unit norm = %v, want 1", u.Norm())
	}
	if z := (Point{}).Unit(); z != (Point{}) {
		t.Errorf("Unit of zero = %v, want zero", z)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Pt(10, 0), Pt(0, 10))
	if r.Min != Pt(0, 0) || r.Max != Pt(10, 10) {
		t.Errorf("NewRect = %+v", r)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5), true},
		{Pt(0, 0), true},
		{Pt(10, 10), true},
		{Pt(-0.1, 5), false},
		{Pt(5, 10.1), false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(10, 10))
	tests := []struct {
		name string
		b    Rect
		want bool
	}{
		{"overlapping", NewRect(Pt(5, 5), Pt(15, 15)), true},
		{"touching edge", NewRect(Pt(10, 0), Pt(20, 10)), true},
		{"disjoint", NewRect(Pt(11, 11), Pt(20, 20)), false},
		{"contained", NewRect(Pt(2, 2), Pt(3, 3)), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Intersects(tt.b); got != tt.want {
				t.Errorf("Intersects = %v, want %v", got, tt.want)
			}
			if got := tt.b.Intersects(a); got != tt.want {
				t.Errorf("Intersects (reversed) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRectGeometry(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(4, 2))
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Errorf("W/H/Area = %v/%v/%v", r.Width(), r.Height(), r.Area())
	}
	if c := r.Center(); c != Pt(2, 1) {
		t.Errorf("Center = %v", c)
	}
	e := r.Expand(1)
	if e.Min != Pt(-1, -1) || e.Max != Pt(5, 3) {
		t.Errorf("Expand = %+v", e)
	}
}

func TestRectClamp(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	tests := []struct {
		p, want Point
	}{
		{Pt(5, 5), Pt(5, 5)},
		{Pt(-5, 5), Pt(0, 5)},
		{Pt(15, 20), Pt(10, 10)},
	}
	for _, tt := range tests {
		if got := r.Clamp(tt.p); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestNewGridIndexValidation(t *testing.T) {
	if _, err := NewGridIndex(NewRect(Pt(0, 0), Pt(10, 10)), 0); err == nil {
		t.Error("want error for zero cell size")
	}
	if _, err := NewGridIndex(Rect{}, 10); err == nil {
		t.Error("want error for empty bounds")
	}
}

func mustGrid(t *testing.T, b Rect, cell float64) *GridIndex {
	t.Helper()
	g, err := NewGridIndex(b, cell)
	if err != nil {
		t.Fatalf("NewGridIndex: %v", err)
	}
	return g
}

func TestGridWithinRadius(t *testing.T) {
	g := mustGrid(t, NewRect(Pt(0, 0), Pt(100, 100)), 10)
	pts := []Point{Pt(10, 10), Pt(12, 10), Pt(50, 50), Pt(90, 90)}
	for i, p := range pts {
		g.Insert(i, p)
	}
	got := g.WithinRadius(Pt(11, 10), 5)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("WithinRadius = %v, want [0 1]", got)
	}
	if got := g.WithinRadius(Pt(11, 10), -1); got != nil {
		t.Errorf("negative radius = %v, want nil", got)
	}
	if got := g.WithinRadius(Pt(200, 200), 5); len(got) != 0 {
		t.Errorf("far query = %v, want empty", got)
	}
}

func TestGridWithinRadiusOrdering(t *testing.T) {
	g := mustGrid(t, NewRect(Pt(0, 0), Pt(100, 100)), 7)
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		g.Insert(i, pts[i])
	}
	q := Pt(40, 40)
	ids := g.WithinRadius(q, 30)
	for i := 1; i < len(ids); i++ {
		if pts[ids[i-1]].Dist(q) > pts[ids[i]].Dist(q) {
			t.Fatalf("results not sorted by distance at %d", i)
		}
	}
	// Cross-check membership against brute force.
	want := 0
	for _, p := range pts {
		if p.Dist(q) <= 30 {
			want++
		}
	}
	if len(ids) != want {
		t.Errorf("got %d results, brute force %d", len(ids), want)
	}
}

func TestGridNearest(t *testing.T) {
	g := mustGrid(t, NewRect(Pt(0, 0), Pt(100, 100)), 10)
	for i := 0; i < 10; i++ {
		g.Insert(i, Pt(float64(i*10), 0))
	}
	got := g.Nearest(Pt(0, 0), 3)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("Nearest = %v, want [0 1 2]", got)
	}
	if got := g.Nearest(Pt(0, 0), 0); got != nil {
		t.Errorf("Nearest k=0 = %v, want nil", got)
	}
	// Asking for more than exists returns everything.
	if got := g.Nearest(Pt(0, 0), 50); len(got) != 10 {
		t.Errorf("Nearest k=50 returned %d, want 10", len(got))
	}
}

// bruteForceOrder returns every index of pts in ascending (squared
// distance, index) order from q: the order Nearest and VisitByDistance
// promise.
func bruteForceOrder(pts []Point, q Point) []int {
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := pts[ids[a]].Dist2(q), pts[ids[b]].Dist2(q)
		if da != db {
			return da < db
		}
		return ids[a] < ids[b]
	})
	return ids
}

// gridWithStrays indexes 500 random points, a tenth of them outside the
// bounds (clamped into border cells), plus a few exact duplicates so that
// equal distances exercise the ID tie-break.
func gridWithStrays(t *testing.T, rng *rand.Rand) (*GridIndex, []Point) {
	t.Helper()
	g := mustGrid(t, NewRect(Pt(0, 0), Pt(1000, 1000)), 25)
	pts := make([]Point, 500)
	for i := range pts {
		switch {
		case i%10 == 9:
			pts[i] = Pt(rng.Float64()*1600-300, rng.Float64()*1600-300)
		case i%50 == 7:
			pts[i] = pts[i-1]
		default:
			pts[i] = Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		g.Insert(i, pts[i])
	}
	return g, pts
}

func TestGridNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, pts := gridWithStrays(t, rng)
	lastRing := 25.0
	for lastRing <= math.Hypot(1000, 1000)+25 {
		lastRing *= 2
	}
	for trial := 0; trial < 40; trial++ {
		// Half the queries fall outside the bounds.
		q := Pt(rng.Float64()*1000, rng.Float64()*1000)
		if trial%2 == 1 {
			q = Pt(rng.Float64()*2000-500, rng.Float64()*2000-500)
		}
		// Nearest's last ring is the first past the diagonal plus a
		// cell; strays farther out than that are never reached.
		want := bruteForceOrder(pts, q)
		for i, id := range want {
			if pts[id].Dist2(q) > lastRing*lastRing {
				want = want[:i]
				break
			}
		}
		for _, k := range []int{1, 5, 37, len(pts)} {
			wantK := want[:min(k, len(want))]
			if got := g.Nearest(q, k); !reflect.DeepEqual(got, wantK) {
				t.Fatalf("trial %d k=%d at %v:\ngot  %v\nwant %v", trial, k, q, got, wantK)
			}
		}
	}
}

func TestVisitByDistanceOrderAndEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, pts := gridWithStrays(t, rng)
	for trial := 0; trial < 20; trial++ {
		q := Pt(rng.Float64()*2000-500, rng.Float64()*2000-500)
		want := bruteForceOrder(pts, q)

		// A full walk with an unreachable cap yields every item in order.
		var all []int
		g.VisitByDistance(q, 10, 1e6, func(id int) bool {
			all = append(all, id)
			return true
		})
		if !reflect.DeepEqual(all, want) {
			t.Fatalf("trial %d: full walk out of order at %v", trial, q)
		}

		// Returning false stops the walk at once.
		stop := 1 + rng.Intn(len(pts)-1)
		var got []int
		g.VisitByDistance(q, 10, 1e6, func(id int) bool {
			got = append(got, id)
			return len(got) < stop
		})
		if !reflect.DeepEqual(got, want[:stop]) {
			t.Fatalf("trial %d: early stop after %d yielded %v", trial, stop, got)
		}
	}
}

func TestVisitByDistanceStopsPastMaxR(t *testing.T) {
	g := mustGrid(t, NewRect(Pt(0, 0), Pt(100, 100)), 10)
	for i := 0; i < 10; i++ {
		g.Insert(i, Pt(float64(i*10), 0))
	}
	// Passes at radius 5, 10, 20: the 20 m pass is the first past maxR
	// 15, so items up to 20 m away are visited and nothing farther.
	var got []int
	g.VisitByDistance(Pt(0, 0), 5, 15, func(id int) bool {
		got = append(got, id)
		return true
	})
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("VisitByDistance = %v, want %v", got, want)
	}
}

func TestGridClampsOutOfBounds(t *testing.T) {
	g := mustGrid(t, NewRect(Pt(0, 0), Pt(100, 100)), 10)
	g.Insert(1, Pt(-50, -50)) // clamped into border cell, still findable
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.WithinRadius(Pt(-50, -50), 1); len(got) != 1 {
		t.Errorf("out-of-bounds item not found: %v", got)
	}
}

func TestGridLen(t *testing.T) {
	g := mustGrid(t, NewRect(Pt(0, 0), Pt(10, 10)), 1)
	if g.Len() != 0 {
		t.Fatalf("empty Len = %d", g.Len())
	}
	for i := 0; i < 42; i++ {
		g.Insert(i, Pt(5, 5))
	}
	if g.Len() != 42 {
		t.Errorf("Len = %d, want 42", g.Len())
	}
}
