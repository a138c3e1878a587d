package geo

import (
	"math"
	"math/rand"
	"testing"
)

func benchIndex(tb testing.TB, n int) (*GridIndex, []Point) {
	tb.Helper()
	g, err := NewGridIndex(NewRect(Pt(0, 0), Pt(8000, 8000)), 125)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*8000, rng.Float64()*8000)
		g.Insert(i, pts[i])
	}
	return g, pts
}

func BenchmarkVisitByDistance100(b *testing.B) {
	g, pts := benchIndex(b, 12000)
	n := 0
	next := func(int) bool { n++; return n < 100 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		g.VisitByDistance(pts[i%len(pts)], 125, 8000*math.Sqrt2+125, next)
	}
}
