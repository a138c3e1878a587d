// Package geo provides the small planar-geometry toolkit used by the
// synthetic city, the WiGLE-substitute database and the mobility models.
//
// All coordinates are metres in a local tangent plane; the simulated city is
// a few kilometres across, so planar geometry is accurate enough and keeps
// every computation exact and fast.
package geo

import (
	"fmt"
	"math"
)

// Point is a position in metres on the city plane.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Scale returns p with both coordinates multiplied by k.
func (p Point) Scale(k float64) Point { return Point{X: p.X * k, Y: p.Y * k} }

// Dist returns the Euclidean distance between p and q in metres.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared distance between p and q. It avoids the square
// root for comparisons against a squared radius.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right corner; a Rect with Min == Max is empty but valid.
type Rect struct {
	Min Point `json:"min"`
	Max Point `json:"max"`
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{X: math.Min(a.X, b.X), Y: math.Min(a.Y, b.Y)},
		Max: Point{X: math.Max(a.X, b.X), Y: math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}
