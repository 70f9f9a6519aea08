// Package viz renders a placement as an SVG heat map with nothing but
// the standard library; the pts CLI uses it to draw the final placement.
package viz

import (
	"fmt"
	"io"

	"pts/internal/placement"
)

// WritePlacementSVG renders the slot grid colored by pin density (a
// congestion heat map); cells are outlined, empty slots left white.
func WritePlacementSVG(w io.Writer, p *placement.Placement) error {
	l := p.Layout()
	const cell = 10
	width := l.Cols*cell + 20
	height := l.Rows*cell + 20

	density := p.PinDensity()
	maxD := 0.0
	for _, row := range density {
		for _, v := range row {
			if v > maxD {
				maxD = v
			}
		}
	}
	if maxD == 0 {
		maxD = 1
	}

	b := &errWriter{w: w}
	b.printf(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">`+"\n", width, height)
	b.printf(`<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	for r := 0; r < l.Rows; r++ {
		for col := 0; col < l.Cols; col++ {
			x, y := 10+col*cell, 10+r*cell
			occupied := p.CellAt(placement.Pos{Row: int32(r), Col: int32(col)}) >= 0
			if occupied {
				heat := density[r][col] / maxD
				b.printf(`<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#ccc" stroke-width="0.4"/>`+"\n",
					x, y, cell, cell, heatColor(heat))
			} else {
				b.printf(`<rect x="%d" y="%d" width="%d" height="%d" fill="white" stroke="#eee" stroke-width="0.4"/>`+"\n",
					x, y, cell, cell)
			}
		}
	}
	b.printf("</svg>\n")
	return b.err
}

// heatColor maps [0,1] to a white->yellow->red ramp.
func heatColor(h float64) string {
	if h < 0 {
		h = 0
	}
	if h > 1 {
		h = 1
	}
	// 0: near-white, 0.5: yellow, 1: red.
	var r, g, b int
	if h < 0.5 {
		t := h * 2
		r = 255
		g = 255
		b = int(230 * (1 - t))
	} else {
		t := (h - 0.5) * 2
		r = 255
		g = int(255 * (1 - t))
		b = 0
	}
	return fmt.Sprintf("#%02x%02x%02x", r, g, b)
}

// errWriter folds the first write error, keeping render code linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
