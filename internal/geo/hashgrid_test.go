package geo

import (
	"math/rand"
	"slices"
	"testing"
)

func TestHashGridValidation(t *testing.T) {
	if _, err := NewHashGrid(0); err == nil {
		t.Error("NewHashGrid(0) accepted")
	}
	if _, err := NewHashGrid(-5); err == nil {
		t.Error("NewHashGrid(-5) accepted")
	}
}

func TestHashGridKeyNegativeCoordinates(t *testing.T) {
	g, err := NewHashGrid(10)
	if err != nil {
		t.Fatal(err)
	}
	// Cells must partition the plane: the cells just left of and just
	// right of the origin are distinct (truncation toward zero would fold
	// them together).
	if g.Key(Pt(-1, 0)) == g.Key(Pt(1, 0)) {
		t.Error("cells across x=0 folded together")
	}
	if got, want := g.Key(Pt(-1, -1)), (CellKey{X: -1, Y: -1}); got != want {
		t.Errorf("Key(-1,-1) = %+v, want %+v", got, want)
	}
	if got, want := g.Key(Pt(-10, 0)), (CellKey{X: -1, Y: 0}); got != want {
		t.Errorf("Key(-10,0) = %+v, want %+v (boundary belongs to the right cell)", got, want)
	}
}

// gridLen counts the items g holds.
func gridLen(g *HashGrid) int {
	n := 0
	for _, ids := range g.cells {
		n += len(ids)
	}
	return n
}

func TestHashGridInsertRemoveMove(t *testing.T) {
	g, err := NewHashGrid(10)
	if err != nil {
		t.Fatal(err)
	}
	k1 := g.Insert(1, Pt(5, 5))
	k2 := g.Insert(2, Pt(5, 6)) // same cell
	if k1 != k2 {
		t.Fatalf("expected same cell, got %+v vs %+v", k1, k2)
	}
	if gridLen(g) != 2 {
		t.Fatalf("Len = %d, want 2", gridLen(g))
	}

	// Move within the cell is a no-op; across cells re-buckets.
	if k := g.Move(1, k1, Pt(6, 6)); k != k1 {
		t.Errorf("intra-cell move changed key to %+v", k)
	}
	k3 := g.Move(1, k1, Pt(25, 5))
	if k3 == k1 {
		t.Error("cross-cell move kept old key")
	}
	if gridLen(g) != 2 {
		t.Fatalf("Len after move = %d, want 2", gridLen(g))
	}

	g.Remove(2, k2)
	g.Remove(2, k2) // double remove is a no-op
	g.Remove(1, k3)
	if gridLen(g) != 0 {
		t.Fatalf("Len after removes = %d, want 0", gridLen(g))
	}
}

func TestHashGridNeighborhoodSuperset(t *testing.T) {
	g, err := NewHashGrid(50)
	if err != nil {
		t.Fatal(err)
	}
	// Ring of points at varying distances from the origin.
	pts := []Point{Pt(0, 0), Pt(30, 0), Pt(49, 49), Pt(120, 0), Pt(-60, -60), Pt(500, 500)}
	for i, p := range pts {
		g.Insert(int32(i), p)
	}
	got := g.AppendNeighborhood(nil, Pt(0, 0), 50)
	slices.Sort(got)
	// Everything within 50 m must be present (0, 1, 2); the far point
	// (500,500) must not be. Points in adjacent cells may appear — the
	// result is a superset and callers re-check exact distance.
	for _, want := range []int32{0, 1, 2} {
		if !slices.Contains(got, want) {
			t.Errorf("in-range id %d missing from neighborhood %v", want, got)
		}
	}
	if slices.Contains(got, 5) {
		t.Errorf("far id 5 present in neighborhood %v", got)
	}

	if res := g.AppendNeighborhood(nil, Pt(0, 0), -1); len(res) != 0 {
		t.Errorf("negative radius returned %v", res)
	}
}

func TestHashGridNeighborhoodDeterministicAndZeroAlloc(t *testing.T) {
	g, err := NewHashGrid(25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		g.Insert(int32(i), Pt(float64(i%20)*7, float64(i/20)*7))
	}
	a := g.AppendNeighborhood(nil, Pt(50, 30), 25)
	b := g.AppendNeighborhood(nil, Pt(50, 30), 25)
	if !slices.Equal(a, b) || !slices.IsSorted(a) {
		t.Fatalf("neighborhood not ascending and deterministic: %v vs %v", a, b)
	}

	buf := make([]int32, 0, 256)
	avg := testing.AllocsPerRun(100, func() {
		buf = g.AppendNeighborhood(buf[:0], Pt(50, 30), 25)
	})
	if avg != 0 {
		t.Errorf("AppendNeighborhood with capacity allocates %.2f/op, want 0", avg)
	}

	// Ids spanning more than mergeSpan merge in several bitmap windows,
	// which must not allocate either.
	wide, err := NewHashGrid(25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		wide.Insert(int32(i*100), Pt(float64(i%20)*7, float64(i/20)*7))
	}
	if got := wide.AppendNeighborhood(buf[:0], Pt(50, 30), 25); !slices.IsSorted(got) || len(got) == 0 {
		t.Fatalf("wide-span neighborhood %v not ascending", got)
	}
	avg = testing.AllocsPerRun(100, func() {
		buf = wide.AppendNeighborhood(buf[:0], Pt(50, 30), 25)
	})
	if avg != 0 {
		t.Errorf("wide-span AppendNeighborhood with capacity allocates %.2f/op, want 0", avg)
	}
}

// TestHashGridNeighborhoodRadiusLargerThanCell is the regression test for
// query radii exceeding the cell size: promotion-boundary queries use radii
// several times the broadcast cell, and every in-range item must still be
// returned (a fixed 3×3 scan would miss items two or more rings out).
func TestHashGridNeighborhoodRadiusLargerThanCell(t *testing.T) {
	const cell = 10.0
	g, err := NewHashGrid(cell)
	if err != nil {
		t.Fatal(err)
	}
	// A lattice spanning many cells in every direction, including negative
	// coordinates.
	var pts []Point
	id := int32(0)
	for x := -80.0; x <= 80; x += 8 {
		for y := -80.0; y <= 80; y += 8 {
			p := Pt(x, y)
			g.Insert(id, p)
			pts = append(pts, p)
			id++
		}
	}
	for _, radius := range []float64{cell * 3.5, cell * 5, cell * 7.2} {
		center := Pt(3, -4)
		got := g.AppendNeighborhood(nil, center, radius)
		present := make(map[int32]bool, len(got))
		for _, id := range got {
			present[id] = true
		}
		for i, p := range pts {
			if center.Dist(p) <= radius && !present[int32(i)] {
				t.Fatalf("radius %v: in-range id %d at %v missing (got %d ids)",
					radius, i, p, len(got))
			}
		}
	}
}

// bruteNeighborhood is AppendNeighborhood's definition: every id whose
// cell lies in the box of cells covering [p-radius, p+radius], sorted.
func bruteNeighborhood(g *HashGrid, ids []int32, pts []Point, p Point, radius float64) []int32 {
	if radius < 0 {
		return nil
	}
	lo := g.Key(Point{X: p.X - radius, Y: p.Y - radius})
	hi := g.Key(Point{X: p.X + radius, Y: p.Y + radius})
	var out []int32
	for i, id := range ids {
		k := g.Key(pts[i])
		if k.X >= lo.X && k.X <= hi.X && k.Y >= lo.Y && k.Y <= hi.Y {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// TestHashGridNeighborhoodMatchesBruteForce checks AppendNeighborhood,
// order included, against the sorted cell-box filter over random grids, at
// radii that take the one-ring merge (radius 0, below the cell size, one
// cell), the box scan (a few cells over a crowded grid) and the
// occupied-cell scan (many cells wide, wider than the whole grid), with
// points and queries on both sides of the origin, ids inserted out of
// order and spread past the merge bitmap's span, and after removals and
// moves.
func TestHashGridNeighborhoodMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coord := func(span float64) float64 { return (rng.Float64()*2 - 1) * span }
	for trial := 0; trial < 200; trial++ {
		cell := 1 + rng.Float64()*50
		g, err := NewHashGrid(cell)
		if err != nil {
			t.Fatal(err)
		}
		span := cell * float64(1+rng.Intn(40))
		n := rng.Intn(60) // includes the empty grid
		stride := []int32{1, 1, 500}[rng.Intn(3)]
		ids := make([]int32, n)
		pts := make([]Point, n)
		keys := make([]CellKey, n)
		for i, id := range rng.Perm(n) {
			ids[i] = int32(id) * stride
			pts[i] = Pt(coord(span), coord(span))
			keys[i] = g.Insert(ids[i], pts[i])
		}
		// Churn a few items so emptied cells are deleted and others move.
		for i := 0; i < n/4; i++ {
			j := rng.Intn(n)
			pts[j] = Pt(coord(span), coord(span))
			keys[j] = g.Move(ids[j], keys[j], pts[j])
		}
		if n > 0 {
			last := n - 1
			g.Remove(ids[last], keys[last])
			ids, pts = ids[:last], pts[:last]
		}
		for _, radius := range []float64{0, cell / 3, cell, cell * 1.6, cell * 7.5, span * 3} {
			for q := 0; q < 5; q++ {
				p := Pt(coord(span*1.5), coord(span*1.5))
				got := g.AppendNeighborhood(nil, p, radius)
				want := bruteNeighborhood(g, ids, pts, p, radius)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d cell %.2f radius %.2f at %v: got %v, want %v",
						trial, cell, radius, p, got, want)
				}
			}
		}
	}
}

// TestHashGridNeighborhoodsMergeGrids spreads random items over three
// grids, as the medium spreads stations over channel grids, and checks
// that AppendNeighborhoods over any of them, nil grids included, equals
// the brute-force scan of the items they hold, before and after Renumber
// closes the gaps a churn left in the ids.
func TestHashGridNeighborhoodsMergeGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const cell = 20.0
	for trial := 0; trial < 100; trial++ {
		var grids [3]*HashGrid
		for i := range grids {
			grids[i], _ = NewHashGrid(cell)
		}
		n := rng.Intn(80)
		ids, pts, in := make([]int32, 0, n), make([]Point, 0, n), make([]int, 0, n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				continue // a gap, as a detached slot leaves
			}
			ids = append(ids, int32(i))
			pts = append(pts, Pt(rng.Float64()*120-60, rng.Float64()*120-60))
			in = append(in, rng.Intn(3))
			grids[in[len(in)-1]].Insert(int32(i), pts[len(pts)-1])
		}
		check := func(stage string) {
			for q := 0; q < 5; q++ {
				p := Pt(rng.Float64()*120-60, rng.Float64()*120-60)
				for _, radius := range []float64{cell / 2, cell, 3 * cell} {
					for mask := 0; mask < 8; mask++ {
						sel := make([]*HashGrid, 3)
						var sub []int32
						var subPts []Point
						for j, g := range grids {
							if mask&(1<<j) != 0 {
								sel[j] = g
							}
						}
						for k, id := range ids {
							if sel[in[k]] != nil {
								sub, subPts = append(sub, id), append(subPts, pts[k])
							}
						}
						got := AppendNeighborhoods(nil, p, radius, sel...)
						if want := bruteNeighborhood(grids[0], sub, subPts, p, radius); !slices.Equal(got, want) {
							t.Fatalf("trial %d %s: grids %03b at %v radius %v: got %v, want %v",
								trial, stage, mask, p, radius, got, want)
						}
					}
				}
			}
		}
		check("before renumbering")
		newID := make([]int32, n)
		for k, id := range ids {
			newID[id] = int32(k)
			ids[k] = int32(k)
		}
		for _, g := range grids {
			g.Renumber(newID)
			checkCellsAscending(t, g)
		}
		check("after renumbering")
	}
}

// checkCellsAscending fails unless every cell of g holds strictly
// ascending ids.
func checkCellsAscending(t *testing.T, g *HashGrid) {
	t.Helper()
	for k, ids := range g.cells {
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("cell %+v not ascending: %v", k, ids)
			}
		}
	}
}

// TestHashGridCellsStayAscending drives random inserts (in and out of id
// order), removals and moves, and checks after every step that each cell
// is strictly ascending and the grid holds exactly the live ids.
func TestHashGridCellsStayAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := NewHashGrid(10)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int32 // live ids
	keys := make(map[int32]CellKey)
	next := int32(0)
	pos := func() Point { return Pt(rng.Float64()*60-30, rng.Float64()*60-30) }
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(ids) == 0:
			id := next
			if rng.Intn(3) == 0 {
				id = rng.Int31n(next + 1) // out of order, when free
			}
			if _, dup := keys[id]; dup {
				continue
			}
			keys[id] = g.Insert(id, pos())
			ids = append(ids, id)
			next = max(next, id+1)
		case op == 1:
			i := rng.Intn(len(ids))
			g.Remove(ids[i], keys[ids[i]])
			delete(keys, ids[i])
			ids = slices.Delete(ids, i, i+1)
		default:
			id := ids[rng.Intn(len(ids))]
			keys[id] = g.Move(id, keys[id], pos())
		}
		checkCellsAscending(t, g)
		if n := gridLen(g); n != len(ids) {
			t.Fatalf("step %d: grid holds %d ids, want %d", step, n, len(ids))
		}
	}
}

// FuzzHashGridOrder decodes the input as a sequence of inserts, removals
// and moves, then checks that every cell is ascending and that the
// neighborhood merge, around each live item and at several radii, equals
// the brute-force sorted scan. stride spreads the ids so the merge runs
// over one bitmap window or several.
func FuzzHashGridOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 4, 5, 6, 2, 0, 9, 9, 1, 0, 0, 0}, uint16(1))
	f.Add([]byte{0, 10, 200, 30, 0, 11, 40, 250, 0, 12, 128, 128, 2, 10, 0, 0, 0, 3, 129, 127}, uint16(700))
	f.Fuzz(func(t *testing.T, ops []byte, stride uint16) {
		const cell = 16.0
		g, err := NewHashGrid(cell)
		if err != nil {
			t.Fatal(err)
		}
		step := int32(stride%1024) + 1
		type item struct {
			p Point
			k CellKey
		}
		live := make(map[int32]item)
		for ; len(ops) >= 4; ops = ops[4:] {
			id := int32(ops[1]) * step
			p := Pt(float64(ops[2])-128, float64(ops[3])-128)
			it, ok := live[id]
			switch ops[0] % 3 {
			case 0:
				if !ok {
					live[id] = item{p, g.Insert(id, p)}
				}
			case 1:
				if ok {
					g.Remove(id, it.k)
					delete(live, id)
				}
			case 2:
				if ok {
					live[id] = item{p, g.Move(id, it.k, p)}
				}
			}
		}
		checkCellsAscending(t, g)
		ids := make([]int32, 0, len(live))
		pts := make([]Point, 0, len(live))
		for id, it := range live {
			ids = append(ids, id)
			pts = append(pts, it.p)
		}
		for _, p := range append(pts[:len(pts):len(pts)], Pt(0, 0)) {
			for _, radius := range []float64{0, cell / 2, cell, 3 * cell, 40 * cell} {
				got := g.AppendNeighborhood(nil, p, radius)
				if want := bruteNeighborhood(g, ids, pts, p, radius); !slices.Equal(got, want) {
					t.Fatalf("neighborhood at %v radius %v: got %v, want %v", p, radius, got, want)
				}
			}
		}
	})
}

// TestHashGridWideQueryAllocs pins the occupied-cell scan a promotion
// window runs — a box of about a million cells over a few occupied ones —
// at zero allocations into a warmed dst.
func TestHashGridWideQueryAllocs(t *testing.T) {
	g := wideQueryGrid(t)
	buf := g.AppendNeighborhood(nil, Pt(0, 0), 50000)
	if len(buf) != 3 {
		t.Fatalf("wide query found %d sites, want 3", len(buf))
	}
	avg := testing.AllocsPerRun(100, func() {
		buf = g.AppendNeighborhood(buf[:0], Pt(0, 0), 50000)
	})
	if avg != 0 {
		t.Errorf("wide AppendNeighborhood allocates %.2f/op, want 0", avg)
	}
}

// wideQueryGrid is three sites in a grid of 100 m cells, the shape of the
// far-field promotion grid.
func wideQueryGrid(tb testing.TB) *HashGrid {
	tb.Helper()
	g, err := NewHashGrid(100)
	if err != nil {
		tb.Fatal(err)
	}
	g.Insert(0, Pt(-250, 40))
	g.Insert(1, Pt(300, 900))
	g.Insert(2, Pt(1200, -700))
	return g
}

func BenchmarkHashGridWideQuery(b *testing.B) {
	g := wideQueryGrid(b)
	buf := g.AppendNeighborhood(nil, Pt(0, 0), 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.AppendNeighborhood(buf[:0], Pt(float64(i%100), 0), 50000)
	}
}
