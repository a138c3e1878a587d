package geo

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
)

// GridIndex is a uniform spatial hash over a bounded region. It supports the
// two queries the rest of the system needs: all items within a radius of a
// point, and the k nearest items to a point. Items are referenced by the
// integer IDs the caller inserts, so the index stores no payloads.
type GridIndex struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]gridItem
}

type gridItem struct {
	id int
	p  Point
}

// NewGridIndex builds an index over bounds with roughly cellSize-metre cells.
// cellSize must be positive and bounds must have positive area.
func NewGridIndex(bounds Rect, cellSize float64) (*GridIndex, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("geo: cell size %v must be positive", cellSize)
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("geo: bounds %v have no area", bounds)
	}
	cols := int(math.Ceil(bounds.Width() / cellSize))
	rows := int(math.Ceil(bounds.Height() / cellSize))
	return &GridIndex{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make([][]gridItem, cols*rows),
	}, nil
}

// Len returns the number of items in the index.
func (g *GridIndex) Len() int {
	n := 0
	for _, c := range g.cells {
		n += len(c)
	}
	return n
}

// Insert adds an item at p. Points outside the bounds are clamped to the
// border cell so that nothing is silently dropped.
func (g *GridIndex) Insert(id int, p Point) {
	i := g.cellIndex(p)
	g.cells[i] = append(g.cells[i], gridItem{id: id, p: p})
}

func (g *GridIndex) cellIndex(p Point) int {
	cx := int((p.X - g.bounds.Min.X) / g.cellSize)
	cy := int((p.Y - g.bounds.Min.Y) / g.cellSize)
	cx = min(max(cx, 0), g.cols-1)
	cy = min(max(cy, 0), g.rows-1)
	return cy*g.cols + cx
}

// WithinRadius returns the IDs of all items within radius metres of p, in
// ascending distance order.
func (g *GridIndex) WithinRadius(p Point, radius float64) []int {
	if radius < 0 {
		return nil
	}
	r2 := radius * radius
	var found []distItem
	g.visitCells(p, radius, func(it gridItem) {
		if d2 := it.p.Dist2(p); d2 <= r2 {
			found = append(found, distItem{id: it.id, d2: d2})
		}
	})
	sortByDist(found)
	ids := make([]int, len(found))
	for i, f := range found {
		ids[i] = f.id
	}
	return ids
}

// Nearest returns the IDs of the k items closest to p, nearest first. It
// returns fewer than k when the index holds fewer items.
func (g *GridIndex) Nearest(p Point, k int) []int {
	if k <= 0 {
		return nil
	}
	maxR := math.Hypot(g.bounds.Width(), g.bounds.Height()) + g.cellSize
	var ids []int
	g.VisitByDistance(p, g.cellSize, maxR, func(id int) bool {
		ids = append(ids, id)
		return len(ids) < k
	})
	return ids
}

// VisitByDistance calls fn with item IDs in ascending (squared distance,
// ID) order from p, the order WithinRadius returns, until fn returns false.
// The search radius starts at start and doubles each pass; every pass
// collects and sorts only the annulus the previous pass left out, so a
// caller that stops early never pays for ordering the items beyond it. The
// walk ends after the first pass whose radius exceeds maxR: items farther
// than that pass's radius are never visited. start must be positive.
func (g *GridIndex) VisitByDistance(p Point, start, maxR float64, fn func(id int) bool) {
	buf := rings.Get().(*[]distItem)
	ring := (*buf)[:0]
	defer func() {
		*buf = ring[:0]
		rings.Put(buf)
	}()
	prev2 := -1.0 // the first pass also takes items at distance zero
	for r := start; ; r *= 2 {
		r2 := r * r
		ring = ring[:0]
		g.visitCells(p, r, func(it gridItem) {
			if d2 := it.p.Dist2(p); d2 > prev2 && d2 <= r2 {
				ring = append(ring, distItem{id: it.id, d2: d2})
			}
		})
		sortByDist(ring)
		for _, it := range ring {
			if !fn(it.id) {
				return
			}
		}
		if r > maxR {
			return
		}
		prev2 = r2
	}
}

func (g *GridIndex) visitCells(p Point, radius float64, fn func(gridItem)) {
	minX := int((p.X - radius - g.bounds.Min.X) / g.cellSize)
	maxX := int((p.X + radius - g.bounds.Min.X) / g.cellSize)
	minY := int((p.Y - radius - g.bounds.Min.Y) / g.cellSize)
	maxY := int((p.Y + radius - g.bounds.Min.Y) / g.cellSize)
	minX = min(max(minX, 0), g.cols-1)
	maxX = min(max(maxX, 0), g.cols-1)
	minY = min(max(minY, 0), g.rows-1)
	maxY = min(max(maxY, 0), g.rows-1)
	for cy := minY; cy <= maxY; cy++ {
		for cx := minX; cx <= maxX; cx++ {
			for _, it := range g.cells[cy*g.cols+cx] {
				fn(it)
			}
		}
	}
}

// rings recycles VisitByDistance's annulus buffers across walks: a walk in a
// dense city collects thousands of items in its last pass, and attacker
// seeding runs one walk per engine, from several campaign workers at once.
var rings = sync.Pool{New: func() any { return new([]distItem) }}

type distItem struct {
	id int
	d2 float64
}

// sortByDist orders items by squared distance, then ID, so equidistant
// items come out in a deterministic order.
func sortByDist(items []distItem) {
	slices.SortFunc(items, func(a, b distItem) int {
		switch {
		case a.d2 < b.d2:
			return -1
		case a.d2 > b.d2:
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
}
