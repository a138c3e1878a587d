package geo

import "fmt"

// CellKey identifies one cell of a HashGrid.
type CellKey struct{ X, Y int32 }

// HashGrid is a sparse uniform grid over the unbounded plane. Unlike
// GridIndex it needs no bounds up front and supports removal and movement,
// which makes it the right shape for a live set of stations: insert on
// attach, move on position updates, remove on detach, and query the cells
// covering a radius at delivery time.
//
// Items are referenced by caller-supplied int32 ids; the grid stores no
// payloads. Neighborhood queries return ids in unspecified order; callers
// sort them.
type HashGrid struct {
	cellSize float64
	cells    map[CellKey][]int32
}

// NewHashGrid builds a grid with cellSize-metre cells. cellSize must be
// positive.
func NewHashGrid(cellSize float64) (*HashGrid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("geo: cell size %v must be positive", cellSize)
	}
	return &HashGrid{cellSize: cellSize, cells: make(map[CellKey][]int32)}, nil
}

// Key returns the cell containing p.
func (g *HashGrid) Key(p Point) CellKey {
	return CellKey{X: int32(floorDiv(p.X, g.cellSize)), Y: int32(floorDiv(p.Y, g.cellSize))}
}

// floorDiv is floor(v/size) as an int, correct for negative coordinates
// (plain integer conversion truncates toward zero, which would fold the
// cells around the origin together).
func floorDiv(v, size float64) int {
	q := v / size
	i := int(q)
	if q < 0 && float64(i) != q {
		i--
	}
	return i
}

// Insert adds id at p and returns the cell it landed in, for the caller to
// cache and hand back to Move or Remove.
func (g *HashGrid) Insert(id int32, p Point) CellKey {
	k := g.Key(p)
	g.cells[k] = append(g.cells[k], id)
	return k
}

// Remove deletes id from the cell it was last inserted or moved into.
// Removing an id the cell does not hold is a no-op.
func (g *HashGrid) Remove(id int32, k CellKey) {
	ids := g.cells[k]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			if len(ids) == 0 {
				delete(g.cells, k)
			} else {
				g.cells[k] = ids
			}
			return
		}
	}
}

// Move re-buckets id from its cached cell to the cell containing p and
// returns the new key. When the position stays within the same cell the
// grid is untouched.
func (g *HashGrid) Move(id int32, from CellKey, p Point) CellKey {
	k := g.Key(p)
	if k == from {
		return k
	}
	g.Remove(id, from)
	g.cells[k] = append(g.cells[k], id)
	return k
}

// oneRing is the number of cells in a query box of radius at most the cell
// size: p's cell and the ring around it.
const oneRing = 9

// AppendNeighborhood appends to dst the ids of every item whose cell
// intersects the axis-aligned square of half-width radius around p, and
// returns the extended slice. The result is a superset of the items within
// radius of p — callers re-check exact geometry — and is produced without
// allocating when dst has capacity. The ids come back in unspecified
// order, so callers that need a global order must impose their own (ids
// are ints — sort them).
//
// The scan spans ceil(radius/cellSize) rings of cells on each side of p's
// cell, so radii larger than the cell size are handled exactly. A box
// wider than one ring costs min(box cells, occupied cells): when it covers
// more cells than the grid holds, the occupied cells are scanned instead
// and kept when inside the box. That is the level-of-detail promotion
// scheduler's query, at radii many times the cell size around a handful
// of sites. A box of one ring or less — the medium's query at its radio
// range, one ring by construction of its cell size — is always scanned
// cell by cell: at most nine lookups, in row-major order, which the
// medium's sort orders faster than the map's order.
func (g *HashGrid) AppendNeighborhood(dst []int32, p Point, radius float64) []int32 {
	if radius < 0 {
		return dst
	}
	lo := g.Key(Point{X: p.X - radius, Y: p.Y - radius})
	hi := g.Key(Point{X: p.X + radius, Y: p.Y + radius})
	box := (int64(hi.X) - int64(lo.X) + 1) * (int64(hi.Y) - int64(lo.Y) + 1)
	if box > oneRing && box > int64(len(g.cells)) {
		for k, ids := range g.cells {
			if k.X >= lo.X && k.X <= hi.X && k.Y >= lo.Y && k.Y <= hi.Y {
				dst = append(dst, ids...)
			}
		}
		return dst
	}
	for cy := lo.Y; cy <= hi.Y; cy++ {
		for cx := lo.X; cx <= hi.X; cx++ {
			dst = append(dst, g.cells[CellKey{X: cx, Y: cy}]...)
		}
	}
	return dst
}
