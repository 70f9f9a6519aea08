package placement

// PinDensity returns a Rows x Cols grid counting, per slot, the pins of
// nets whose bounding box covers that slot — the congestion estimate
// behind the SVG heat map (internal/viz).
func (p *Placement) PinDensity() [][]float64 {
	grid := make([][]float64, p.L.Rows)
	for r := range grid {
		grid[r] = make([]float64, p.L.Cols)
	}
	for n := 0; n < p.nl.NumNets(); n++ {
		b := p.boxes[n]
		area := float64((b.maxX - b.minX + 1) * (b.maxY - b.minY + 1))
		weight := float64(p.nl.Nets[n].Degree()) / area
		for r := b.minY; r <= b.maxY; r++ {
			for c := b.minX; c <= b.maxX; c++ {
				grid[r][c] += weight
			}
		}
	}
	return grid
}
