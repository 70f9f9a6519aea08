package placement

import (
	"math"
	"testing"

	"pts/internal/rng"
)

func TestPinDensity(t *testing.T) {
	nl := testNetlist(t, 60, 26)
	p, _ := New(nl, AutoLayout(nl, 0.9))
	p.Randomize(rng.New(2))
	grid := p.PinDensity()
	if len(grid) != p.Layout().Rows || len(grid[0]) != p.Layout().Cols {
		t.Fatal("density grid has wrong shape")
	}
	// Total density mass equals total pins: each net spreads its degree
	// over its bounding box with total weight = degree.
	total := 0.0
	for _, row := range grid {
		for _, v := range row {
			if v < 0 {
				t.Fatal("negative density")
			}
			total += v
		}
	}
	wantPins := 0.0
	for i := range nl.Nets {
		wantPins += float64(nl.Nets[i].Degree())
	}
	if math.Abs(total-wantPins) > 1e-6 {
		t.Fatalf("density mass %v != total pins %v", total, wantPins)
	}
}
