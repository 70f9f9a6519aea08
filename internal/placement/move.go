package placement

import (
	"fmt"
	"math/rand"

	"pts/internal/netlist"
)

// This file adds the second move kind row-based placers use alongside
// pairwise swaps: relocating a cell into an empty slot. The paper's
// search uses swaps only; relocation exists for layouts with spare
// capacity (utilization < 1) and for the density analysis below.

// EmptySlots returns the linear indexes of all unoccupied slots.
func (p *Placement) EmptySlots() []int {
	var out []int
	for i, c := range p.slot {
		if c == netlist.None {
			out = append(out, i)
		}
	}
	return out
}

// RandomEmptySlot returns a uniformly random empty slot, or -1 when the
// grid is full. O(slots) worst case but typically a few probes at the
// utilizations in use.
func (p *Placement) RandomEmptySlot(r *rand.Rand) int {
	free := p.L.Slots() - p.nl.NumCells()
	if free <= 0 {
		return -1
	}
	// Rejection sampling: expected probes = slots/free.
	for {
		i := r.Intn(p.L.Slots())
		if p.slot[i] == netlist.None {
			return i
		}
	}
}

// MoveDeltaWeighted returns the total HPWL change and the w-weighted
// HPWL change if cell c relocated to `to`, without modifying the
// placement and without allocating. Pass w == nil to skip the weighted
// sum. O(1) per net of c (see netBox.trialDelta).
func (p *Placement) MoveDeltaWeighted(c netlist.CellID, to Pos, w []float64) (dLen, dWeighted float64) {
	from := p.pos[c]
	if from == to {
		return 0, 0
	}
	var di int32
	for _, n := range p.nl.CellNets(c) {
		if d := p.boxes[n].trialDelta(from, to); d != 0 {
			di += d
			if w != nil {
				dWeighted += w[n] * float64(d)
			}
		}
	}
	return float64(di), dWeighted
}

// HPWLDeltaMove returns the total HPWL change if cell c moved to the
// empty slot at `to`, without modifying the placement.
func (p *Placement) HPWLDeltaMove(c netlist.CellID, to Pos) (float64, error) {
	if p.CellAt(to) != netlist.None {
		return 0, fmt.Errorf("placement: slot %v is occupied", to)
	}
	d, _ := p.MoveDeltaWeighted(c, to, nil)
	return d, nil
}

// VisitMoveDeltas calls fn for every net whose bounding box changes if
// cell c moved to the (empty) slot at `to`, with old and new
// half-perimeters; the relocation counterpart of VisitSwapDeltas.
func (p *Placement) VisitMoveDeltas(c netlist.CellID, to Pos, fn func(n netlist.NetID, oldLen, newLen float64)) {
	from := p.pos[c]
	if from == to {
		return
	}
	for _, n := range p.nl.CellNets(c) {
		b := &p.boxes[n]
		if d := b.trialDelta(from, to); d != 0 {
			old := b.length()
			fn(n, old, old+float64(d))
		}
	}
}

// MaxRowWidthAfterMove returns the area objective's value if cell c
// moved to slot `to`, without modifying the placement. O(1) via the
// top-two row cache.
func (p *Placement) MaxRowWidthAfterMove(c netlist.CellID, to Pos) int {
	from := p.pos[c]
	if from.Row == to.Row {
		return p.top1W
	}
	w := p.nl.Cells[c].Width
	na := p.rowWidth[from.Row] - w
	nb := p.rowWidth[to.Row] + w
	m := p.topExcluding(from.Row, to.Row)
	if na > m {
		m = na
	}
	if nb > m {
		m = nb
	}
	return m
}

// MoveToSlot relocates cell c into an empty slot, updating all
// maintained quantities incrementally.
func (p *Placement) MoveToSlot(c netlist.CellID, to Pos) error {
	if p.CellAt(to) != netlist.None {
		return fmt.Errorf("placement: slot %v is occupied", to)
	}
	from := p.pos[c]
	if from == to {
		return nil
	}
	p.pos[c] = to
	p.slot[p.L.SlotIndex(from)] = netlist.None
	p.slot[p.L.SlotIndex(to)] = c
	if from.Row != to.Row {
		w := p.nl.Cells[c].Width
		p.updateRowWidth(from.Row, -w)
		p.updateRowWidth(to.Row, w)
	}
	var di int32
	for _, n := range p.nl.CellNets(c) {
		di += p.commitNet(n, from, to)
	}
	p.hpwl += float64(di)
	return nil
}

// PinDensity returns a Rows x Cols grid counting, per slot, the pins of
// nets whose bounding box covers that slot — a congestion estimate used
// for reports and the density example.
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
