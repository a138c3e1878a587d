package geo

import (
	"fmt"
	"math/bits"
	"slices"
)

// CellKey identifies one cell of a HashGrid.
type CellKey struct{ X, Y int32 }

// HashGrid is a sparse uniform grid over the unbounded plane. Unlike
// GridIndex it needs no bounds up front and supports removal and movement,
// which makes it the right shape for a live set of stations: insert on
// attach, move on position updates, remove on detach, and query the cells
// covering a radius at delivery time.
//
// Items are referenced by caller-supplied int32 ids; the grid stores no
// payloads. Every cell keeps its ids in ascending order, whatever the
// history of inserts, moves and removals, and neighborhood queries return
// ids in ascending order. The medium numbers stations by attach order, so
// its broadcast candidates come back in attach order with no sort.
type HashGrid struct {
	cellSize float64
	cells    map[CellKey][]int32
	// spare holds the emptied id lists of deleted cells for new cells to
	// reuse, so a grid whose items move, churn or come and go stops
	// allocating once warm.
	spare [][]int32
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
// cache and hand back to Move or Remove. An id larger than every id in its
// cell — the medium's case, whose newest slot is always the largest — is
// appended; any other is placed by binary search.
func (g *HashGrid) Insert(id int32, p Point) CellKey {
	k := g.Key(p)
	g.add(k, id)
	return k
}

// add puts id into cell k, starting an absent cell from a spare list.
func (g *HashGrid) add(k CellKey, id int32) {
	ids, ok := g.cells[k]
	if n := len(g.spare); !ok && n > 0 {
		ids = g.spare[n-1]
		g.spare[n-1] = nil
		g.spare = g.spare[:n-1]
	}
	g.cells[k] = insertSorted(ids, id)
}

// insertSorted adds id to the ascending ids, keeping them ascending.
func insertSorted(ids []int32, id int32) []int32 {
	if n := len(ids); n == 0 || ids[n-1] < id {
		return append(ids, id)
	}
	i, _ := slices.BinarySearch(ids, id)
	return slices.Insert(ids, i, id)
}

// Remove deletes id from the cell it was last inserted or moved into,
// shifting the ids after it down so the cell stays ascending. Removing an
// id the cell does not hold is a no-op.
func (g *HashGrid) Remove(id int32, k CellKey) {
	ids := g.cells[k]
	i, ok := slices.BinarySearch(ids, id)
	if !ok {
		return
	}
	if ids = slices.Delete(ids, i, i+1); len(ids) == 0 {
		delete(g.cells, k)
		g.spare = append(g.spare, ids)
	} else {
		g.cells[k] = ids
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
	g.add(k, id)
	return k
}

// Renumber replaces every id the grid holds with newID[id]. newID must
// increase over those ids, so every cell stays ascending; it is how the
// medium renumbers its slots when it compacts its station table, with no
// allocation.
func (g *HashGrid) Renumber(newID []int32) {
	for _, ids := range g.cells {
		for j, id := range ids {
			ids[j] = newID[id]
		}
	}
}

// oneRing is the number of cells in a query box of radius at most the cell
// size: p's cell and the ring around it.
const oneRing = 9

// AppendNeighborhood appends to dst, in ascending order, the ids of every
// item whose cell intersects the axis-aligned square of half-width radius
// around p, and returns the extended slice. The result is a superset of
// the items within radius of p — callers re-check exact geometry — and is
// produced without allocating when dst has capacity.
//
// The scan spans ceil(radius/cellSize) rings of cells on each side of p's
// cell, so radii larger than the cell size are handled exactly. A box of
// one ring or less — the medium's query at its radio range, one ring by
// construction of its cell size — takes at most nine lookups and merges
// the ascending cell lists. A wider box costs min(box cells, occupied
// cells): when it covers more cells than the grid holds, the occupied
// cells are scanned instead and kept when inside the box. That is the
// level-of-detail promotion scheduler's query, at radii many times the
// cell size around a handful of sites; its few ids are sorted once.
func (g *HashGrid) AppendNeighborhood(dst []int32, p Point, radius float64) []int32 {
	return AppendNeighborhoods(dst, p, radius, g)
}

// AppendNeighborhoods is AppendNeighborhood over the union of grids, which
// must share one cell size and hold disjoint ids; nil grids are skipped. A
// one-ring query merges the cell lists of every grid in one pass, so the
// union comes back ascending without a sort. The medium keeps one grid per
// radio channel and queries a channel's grid with the channel-agnostic
// one.
func AppendNeighborhoods(dst []int32, p Point, radius float64, grids ...*HashGrid) []int32 {
	var g0 *HashGrid
	for _, g := range grids {
		if g != nil {
			g0 = g
			break
		}
	}
	if radius < 0 || g0 == nil {
		return dst
	}
	lo := g0.Key(Point{X: p.X - radius, Y: p.Y - radius})
	hi := g0.Key(Point{X: p.X + radius, Y: p.Y + radius})
	box := (int64(hi.X) - int64(lo.X) + 1) * (int64(hi.Y) - int64(lo.Y) + 1)
	if box <= oneRing {
		// Room for a channel grid and the agnostic one on the stack; a
		// merge over more grids spills to the heap.
		var buf [2 * oneRing][]int32
		lists := buf[:0]
		for _, g := range grids {
			if g == nil {
				continue
			}
			for cy := lo.Y; cy <= hi.Y; cy++ {
				for cx := lo.X; cx <= hi.X; cx++ {
					if ids := g.cells[CellKey{X: cx, Y: cy}]; len(ids) > 0 {
						lists = append(lists, ids)
					}
				}
			}
		}
		return mergeAppend(dst, lists)
	}
	start := len(dst)
	for _, g := range grids {
		if g == nil {
			continue
		}
		if box > int64(len(g.cells)) {
			for k, ids := range g.cells {
				if k.X >= lo.X && k.X <= hi.X && k.Y >= lo.Y && k.Y <= hi.Y {
					dst = append(dst, ids...)
				}
			}
		} else {
			for cy := lo.Y; cy <= hi.Y; cy++ {
				for cx := lo.X; cx <= hi.X; cx++ {
					dst = append(dst, g.cells[CellKey{X: cx, Y: cy}]...)
				}
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// mergeSpan is the id span one bitmap window of mergeAppend covers: 4096
// ids, a 512-byte stack array. A medium's slot ids span its station table,
// a few hundred slots in a crowded venue, so one window usually suffices.
const mergeSpan = 4096

// mergeAppend appends the union of the ascending, non-empty lists to dst
// in ascending order; no id may be in two lists. It works in windows of
// mergeSpan ids starting at the smallest head: each list's ids in the
// window are marked in a bitmap, a few nanoseconds per id, and read back
// in order, and the lists resume after them. It reslices the elements of
// lists as it consumes them.
func mergeAppend(dst []int32, lists [][]int32) []int32 {
	for len(lists) > 1 {
		lo := lists[0][0]
		for _, l := range lists[1:] {
			lo = min(lo, l[0])
		}
		var seen [mergeSpan / 64]uint64
		top, n := 0, 0
		for _, l := range lists {
			// k is how many of l's ids fall in the window: usually all.
			k := len(l)
			if int64(l[k-1])-int64(lo) >= mergeSpan {
				for k = 0; int64(l[k])-int64(lo) < mergeSpan; k++ {
				}
			}
			for _, id := range l[:k] {
				d := id - lo
				seen[d>>6] |= 1 << (d & 63)
			}
			if k > 0 {
				top = max(top, int(l[k-1]-lo)>>6)
			}
			if k < len(l) {
				lists[n] = l[k:]
				n++
			}
		}
		lists = lists[:n]
		for w, word := range seen[:top+1] {
			for ; word != 0; word &= word - 1 {
				dst = append(dst, lo+int32(w<<6+bits.TrailingZeros64(word)))
			}
		}
	}
	if len(lists) == 1 {
		dst = append(dst, lists[0]...)
	}
	return dst
}
