package heatmap

import (
	"testing"
	"testing/quick"

	"cityhunter/internal/geo"
)

var testBounds = geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))

func mustMap(t *testing.T) *Map {
	t.Helper()
	m, err := New(testBounds, 100)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testBounds, 0); err == nil {
		t.Error("want error for zero cell size")
	}
	if _, err := New(geo.Rect{}, 100); err == nil {
		t.Error("want error for empty bounds")
	}
}

func TestHeatAccumulates(t *testing.T) {
	m := mustMap(t)
	p := geo.Pt(150, 150)
	if m.HeatAt(p) != 0 {
		t.Fatalf("fresh map heat = %d", m.HeatAt(p))
	}
	for i := 0; i < 5; i++ {
		m.AddPhoto(p)
	}
	if m.HeatAt(p) != 5 {
		t.Errorf("heat = %d, want 5", m.HeatAt(p))
	}
	// Same cell, different point.
	if m.HeatAt(geo.Pt(199, 101)) != 5 {
		t.Errorf("same-cell heat = %d, want 5", m.HeatAt(geo.Pt(199, 101)))
	}
	// Different cell unaffected.
	if m.HeatAt(geo.Pt(50, 50)) != 0 {
		t.Errorf("other cell heat = %d, want 0", m.HeatAt(geo.Pt(50, 50)))
	}
	if m.TotalPhotos() != 5 {
		t.Errorf("TotalPhotos = %d", m.TotalPhotos())
	}
}

func TestOutOfBoundsPhotosClamped(t *testing.T) {
	m := mustMap(t)
	m.AddPhoto(geo.Pt(-500, -500))
	m.AddPhoto(geo.Pt(5000, 5000))
	if m.TotalPhotos() != 2 {
		t.Errorf("TotalPhotos = %d, want 2", m.TotalPhotos())
	}
	if m.HeatAt(geo.Pt(0, 0)) != 1 {
		t.Errorf("corner heat = %d, want 1", m.HeatAt(geo.Pt(0, 0)))
	}
}

func TestFromPhotos(t *testing.T) {
	photos := []geo.Point{geo.Pt(10, 10), geo.Pt(15, 12), geo.Pt(900, 900)}
	m, err := FromPhotos(testBounds, 100, photos)
	if err != nil {
		t.Fatal(err)
	}
	if m.HeatAt(geo.Pt(12, 12)) != 2 {
		t.Errorf("heat = %d, want 2", m.HeatAt(geo.Pt(12, 12)))
	}
}

func TestHottestCells(t *testing.T) {
	m := mustMap(t)
	for i := 0; i < 10; i++ {
		m.AddPhoto(geo.Pt(550, 550)) // mall cell
	}
	for i := 0; i < 5; i++ {
		m.AddPhoto(geo.Pt(50, 50)) // lesser spot
	}
	m.AddPhoto(geo.Pt(950, 50))

	cells := m.HottestCells(2)
	if len(cells) != 2 {
		t.Fatalf("HottestCells = %d, want 2", len(cells))
	}
	if cells[0].Photos != 10 || cells[1].Photos != 5 {
		t.Errorf("photo counts = %d,%d want 10,5", cells[0].Photos, cells[1].Photos)
	}
	if testBounds.Clamp(cells[0].Center) != cells[0].Center {
		t.Errorf("cell center %v outside bounds", cells[0].Center)
	}
	// Zero-count cells are never reported.
	all := m.HottestCells(1000)
	if len(all) != 3 {
		t.Errorf("HottestCells(1000) = %d, want 3 non-empty", len(all))
	}
}

func TestRankByHeat(t *testing.T) {
	m := mustMap(t)
	// Airport cell: very hot. Chain cells: mildly warm.
	for i := 0; i < 100; i++ {
		m.AddPhoto(geo.Pt(850, 850))
	}
	for i := 0; i < 3; i++ {
		m.AddPhoto(geo.Pt(150, 150))
		m.AddPhoto(geo.Pt(450, 450))
	}
	positions := map[string][]geo.Point{
		// Few APs, all in the hot area — the paper's airport case.
		"AirportFree": {geo.Pt(850, 850), geo.Pt(860, 855)},
		// Many APs in lukewarm areas.
		"ChainShop": {geo.Pt(150, 150), geo.Pt(450, 450), geo.Pt(750, 150), geo.Pt(50, 950)},
		"ColdNet":   {geo.Pt(250, 950)},
	}
	ranked := m.RankByHeat(positions)
	if len(ranked) != 3 {
		t.Fatalf("ranked %d SSIDs", len(ranked))
	}
	if ranked[0].SSID != "AirportFree" {
		t.Errorf("top by heat = %q, want AirportFree (few APs in hot area)", ranked[0].SSID)
	}
	if ranked[0].Heat != 200 {
		t.Errorf("airport heat = %d, want 200", ranked[0].Heat)
	}
	if ranked[1].SSID != "ChainShop" || ranked[1].Heat != 6 {
		t.Errorf("second = %+v", ranked[1])
	}
	if ranked[2].Heat != 0 {
		t.Errorf("cold heat = %d", ranked[2].Heat)
	}
}

func TestRankByHeatDeterministicTies(t *testing.T) {
	m := mustMap(t)
	positions := map[string][]geo.Point{
		"b": {geo.Pt(1, 1)}, "a": {geo.Pt(2, 2)}, "c": {geo.Pt(3, 3)},
	}
	for trial := 0; trial < 5; trial++ {
		ranked := m.RankByHeat(positions)
		if ranked[0].SSID != "a" || ranked[1].SSID != "b" || ranked[2].SSID != "c" {
			t.Fatalf("tie order: %v", ranked)
		}
	}
}

func TestRankWeights(t *testing.T) {
	w := RankWeights(200)
	if len(w) != 200 {
		t.Fatalf("len = %d", len(w))
	}
	if w[0] != 200 || w[199] != 1 {
		t.Errorf("w[0]=%v w[199]=%v, want 200 and 1 (paper's assignment)", w[0], w[199])
	}
	if RankWeights(0) != nil || RankWeights(-3) != nil {
		t.Error("non-positive n should return nil")
	}
}

func TestQuickRankWeightsMonotone(t *testing.T) {
	f := func(n uint8) bool {
		w := RankWeights(int(n))
		for i := 1; i < len(w); i++ {
			if w[i] >= w[i-1] || w[i] <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDimsAndCellCenter(t *testing.T) {
	m := mustMap(t)
	if m.cols != 11 || m.rows != 11 {
		t.Errorf("dims = %d,%d want 11,11", m.cols, m.rows)
	}
	if c := m.CellCenter(0, 0); c != geo.Pt(50, 50) {
		t.Errorf("CellCenter(0,0) = %v", c)
	}
	if m.CellSize() != 100 || m.bounds != testBounds {
		t.Error("accessors disagree with construction")
	}
}
