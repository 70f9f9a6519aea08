package viz

import (
	"bytes"
	"strings"
	"testing"

	"pts/internal/netlist"
	"pts/internal/placement"
	"pts/internal/rng"
)

func TestWritePlacementSVG(t *testing.T) {
	nl := netlist.MustGenerate(netlist.GenConfig{Name: "v", Cells: 40, Seed: 2})
	p, err := placement.New(nl, placement.AutoLayout(nl, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rng.New(3))
	var buf bytes.Buffer
	if err := WritePlacementSVG(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Fatal("not an SVG document")
	}
	// One rect per slot plus the background.
	if got := strings.Count(out, "<rect"); got != p.Layout().Slots()+1 {
		t.Errorf("%d rects, want %d", got, p.Layout().Slots()+1)
	}
}

func TestHeatColorRamp(t *testing.T) {
	if heatColor(0) != "#ffffe6" {
		t.Errorf("cold end = %s", heatColor(0))
	}
	if heatColor(0.5) != "#ffff00" {
		t.Errorf("middle = %s", heatColor(0.5))
	}
	if heatColor(1) != "#ff0000" {
		t.Errorf("hot end = %s", heatColor(1))
	}
	// Clamping.
	if heatColor(-3) != heatColor(0) || heatColor(9) != heatColor(1) {
		t.Error("heatColor does not clamp")
	}
}

func TestErrWriterPropagates(t *testing.T) {
	ew := &errWriter{w: failWriter{}}
	ew.printf("x")
	ew.printf("y") // must not panic, must keep the first error
	if ew.err == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) {
	return 0, errFail
}

var errFail = bytes.ErrTooLarge
