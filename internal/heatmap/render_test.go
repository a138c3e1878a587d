package heatmap

import (
	"bytes"
	"image/png"
	"testing"

	"cityhunter/internal/geo"
)

func TestRenderPNG(t *testing.T) {
	m := mustMap(t)
	for i := 0; i < 100; i++ {
		m.AddPhoto(geo.Pt(550, 550))
	}
	for i := 0; i < 5; i++ {
		m.AddPhoto(geo.Pt(50, 50))
	}
	var buf bytes.Buffer
	if err := m.RenderPNG(&buf, 3); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("output is not PNG: %v", err)
	}
	cols, rows := m.cols, m.rows
	b := img.Bounds()
	if b.Dx() != cols*3 || b.Dy() != rows*3 {
		t.Errorf("image %dx%d, want %dx%d", b.Dx(), b.Dy(), cols*3, rows*3)
	}

	// The hot cell renders redder than a cold cell. Cell (5,5) holds the
	// 100 photos; remember the y axis flips.
	hotX, hotY := 5*3+1, (rows-1-5)*3+1
	r1, g1, _, _ := img.At(hotX, hotY).RGBA()
	coldX, coldY := 0*3+1, (rows-1-0)*3+1
	r0, g0, _, _ := img.At(coldX, coldY).RGBA()
	if r1 <= g1 {
		t.Errorf("hottest cell not red-dominant: r=%d g=%d", r1, g1)
	}
	if g0 <= r0 {
		t.Errorf("mild cell not green-dominant: r=%d g=%d", r0, g0)
	}
}

func TestRenderPNGEmpty(t *testing.T) {
	m := mustMap(t)
	var buf bytes.Buffer
	if err := m.RenderPNG(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(&buf); err != nil {
		t.Fatalf("empty map render invalid: %v", err)
	}
}

func TestHeatColorRamp(t *testing.T) {
	// Monotone: among non-empty cells, more photos never gets greener.
	// (Zero-count cells render near-black, outside the ramp.)
	prev := heatColor(1, 100)
	for c := 2; c <= 100; c += 7 {
		cur := heatColor(c, 100)
		if int(cur.R)-int(cur.G) < int(prev.R)-int(prev.G)-1 {
			t.Errorf("ramp not monotone at %d: %+v -> %+v", c, prev, cur)
		}
		prev = cur
	}
	if heatColor(100, 100).R < 200 {
		t.Error("max heat not red")
	}
}

func TestLerpClamps(t *testing.T) {
	a := heatColor(1, 100)
	if lerpRGB(a, a, -5) != a || lerpRGB(a, a, 5) != a {
		t.Error("lerp does not clamp")
	}
}
