package placement

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"pts/internal/netlist"
)

// Placement assigns every cell of a netlist to a distinct slot of a
// layout and maintains, incrementally and exactly:
//
//   - each net's bounding box (with runner-up boundary statistics) and
//     the total HPWL,
//   - each row's occupied width plus the top-two widest rows.
//
// Trial evaluation (SwapDeltaWeighted, MaxRowWidthAfterSwap and their
// move counterparts) is O(1) amortized per affected net and allocates
// nothing. Placement is not safe for concurrent use; parallel workers
// clone it.
type Placement struct {
	nl *netlist.Netlist
	L  Layout

	pos    []Pos            // cell -> slot position
	slotOf []int32          // cell -> linear slot index: the exported permutation
	slot   []netlist.CellID // linear slot index -> cell (None if empty)

	boxes []netBox // per-net counted bounding boxes

	hpwl float64 // total half-perimeter wirelength

	rowWidth []int // per-row sum of cell widths

	// Top-two row tracking: the widest and second-widest rows (distinct
	// rows; ties broken by first occurrence). top2Row is -1 on
	// single-row layouts. This answers MaxRowWidthAfterSwap/AfterMove in
	// O(1) — see topExcluding for why two entries suffice.
	top1W, top2W     int
	top1Row, top2Row int32

	// cellWidth is the immutable per-cell width in SoA form (the Cell
	// structs are ~48 bytes each with a Name header, so walking widths
	// through them drags whole cache lines per cell); built once in New
	// and shared by clones like the netlist itself.
	cellWidth []int32

	// Scratch: importSeen backs Import validation, batchKeys holds the
	// batch evaluator's candidate sort keys, batchZeroW the all-zero
	// weight vector substituted for a nil w in batch evaluation.
	importSeen []bool
	batchKeys  []int64
	batchZeroW []float64
}

// New creates a placement with cells assigned to slots in index order
// (cell i in slot i). Fails if the layout has fewer slots than cells.
func New(nl *netlist.Netlist, l Layout) (*Placement, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if l.Slots() < nl.NumCells() {
		return nil, fmt.Errorf("placement: %d slots < %d cells", l.Slots(), nl.NumCells())
	}
	p := &Placement{
		nl:        nl,
		L:         l,
		pos:       make([]Pos, nl.NumCells()),
		slotOf:    make([]int32, nl.NumCells()),
		slot:      make([]netlist.CellID, l.Slots()),
		boxes:     make([]netBox, nl.NumNets()),
		rowWidth:  make([]int, l.Rows),
		cellWidth: make([]int32, nl.NumCells()),
	}
	for c := range p.cellWidth {
		p.cellWidth[c] = int32(nl.Cells[c].Width)
	}
	for i := range p.slot {
		p.slot[i] = netlist.None
	}
	for c := 0; c < nl.NumCells(); c++ {
		p.place(netlist.CellID(c), c)
	}
	p.recomputeAll()
	return p, nil
}

// place puts a cell into the empty slot with linear index s without
// cost bookkeeping; used only when a whole assignment is (re)built.
func (p *Placement) place(c netlist.CellID, s int) {
	p.pos[c] = p.L.SlotPos(s)
	p.slotOf[c] = int32(s)
	p.slot[s] = c
}

// Netlist returns the placed netlist.
func (p *Placement) Netlist() *netlist.Netlist { return p.nl }

// Layout returns the slot grid.
func (p *Placement) Layout() Layout { return p.L }

// PosOf returns the slot position of cell c.
func (p *Placement) PosOf(c netlist.CellID) Pos { return p.pos[c] }

// CellAt returns the cell in the slot at pos, or netlist.None.
func (p *Placement) CellAt(at Pos) netlist.CellID { return p.slot[p.L.SlotIndex(at)] }

// HPWL returns the maintained total half-perimeter wirelength.
func (p *Placement) HPWL() float64 { return p.hpwl }

// NetHPWL returns the maintained half-perimeter of one net.
func (p *Placement) NetHPWL(n netlist.NetID) float64 { return p.boxes[n].length() }

// MaxRowWidth returns the width of the widest row, the area objective.
func (p *Placement) MaxRowWidth() int { return p.top1W }

// RowWidth returns the occupied width of one row.
func (p *Placement) RowWidth(row int) int { return p.rowWidth[row] }

// recomputeAll rebuilds every net box, the total HPWL, the row widths
// and the top-two cache from scratch. O(pins + rows).
func (p *Placement) recomputeAll() {
	p.hpwl = 0
	for n := 0; n < p.nl.NumNets(); n++ {
		p.boxes[n] = p.scanBox(netlist.NetID(n))
		p.hpwl += p.boxes[n].length()
	}
	for r := range p.rowWidth {
		p.rowWidth[r] = 0
	}
	for c := 0; c < p.nl.NumCells(); c++ {
		p.rowWidth[p.pos[c].Row] += p.nl.Cells[c].Width
	}
	p.refreshTopRows()
}

// scanBox computes net n's bounding box with runner-up statistics from
// the current positions by scanning its pins. O(degree); recomputeAll
// and the large-net commit fallback use it. The running
// two-smallest/two-largest updates are phrased as min/max pairs so they
// compile to conditional moves instead of data-dependent branches.
func (p *Placement) scanBox(n netlist.NetID) netBox {
	pins := p.nl.Pins(n)
	q := p.pos[pins[0]]
	b := netBox{
		minX: q.Col, minX2: math.MaxInt32, maxX2: math.MinInt32, maxX: q.Col,
		minY: q.Row, minY2: math.MaxInt32, maxY2: math.MinInt32, maxY: q.Row,
	}
	for _, c := range pins[1:] {
		q := p.pos[c]
		b.minX2 = min(b.minX2, max(b.minX, q.Col))
		b.minX = min(b.minX, q.Col)
		b.maxX2 = max(b.maxX2, min(b.maxX, q.Col))
		b.maxX = max(b.maxX, q.Col)
		b.minY2 = min(b.minY2, max(b.minY, q.Row))
		b.minY = min(b.minY, q.Row)
		b.maxY2 = max(b.maxY2, min(b.maxY, q.Row))
		b.maxY = max(b.maxY, q.Row)
	}
	return b
}

// SwapDeltaWeighted returns the total HPWL change and the w-weighted
// HPWL change (sum of w[n] × net delta) if cells a and b exchanged
// positions, without modifying the placement and without allocating.
// Pass w == nil to skip the weighted sum. O(1) per affected net, no
// rescans. Shared nets — those on which both cells sit — are detected
// by a merge walk over the two sorted CSR net lists and skipped
// outright: exchanging two of a net's pins leaves its pin multiset, and
// hence its box, unchanged.
//
// Like the batch kernel, the per-net delta is trialDelta's arithmetic
// written out in the loop: axisExtent inlines where the composed
// trialDelta would cost a call per net.
func (p *Placement) SwapDeltaWeighted(a, b netlist.CellID, w []float64) (dLen, dWeighted float64) {
	pa, pb := p.pos[a], p.pos[b]
	if pa == pb {
		return 0, 0
	}
	boxes := p.boxes
	an, bn := p.nl.CellNets(a), p.nl.CellNets(b)
	var di int32
	i, j := 0, 0
	for i < len(an) && j < len(bn) {
		switch na, nb := an[i], bn[j]; {
		case na == nb: // shared net: box unchanged
			i++
			j++
		case na < nb:
			bx := &boxes[na]
			d := axisExtent(bx.minX, bx.minX2, bx.maxX2, bx.maxX, pa.Col, pb.Col) - (bx.maxX - bx.minX) +
				axisExtent(bx.minY, bx.minY2, bx.maxY2, bx.maxY, pa.Row, pb.Row) - (bx.maxY - bx.minY)
			if d != 0 {
				di += d
				if w != nil {
					dWeighted += w[na] * float64(d)
				}
			}
			i++
		default:
			bx := &boxes[nb]
			d := axisExtent(bx.minX, bx.minX2, bx.maxX2, bx.maxX, pb.Col, pa.Col) - (bx.maxX - bx.minX) +
				axisExtent(bx.minY, bx.minY2, bx.maxY2, bx.maxY, pb.Row, pa.Row) - (bx.maxY - bx.minY)
			if d != 0 {
				di += d
				if w != nil {
					dWeighted += w[nb] * float64(d)
				}
			}
			j++
		}
	}
	for ; i < len(an); i++ {
		bx := &boxes[an[i]]
		d := axisExtent(bx.minX, bx.minX2, bx.maxX2, bx.maxX, pa.Col, pb.Col) - (bx.maxX - bx.minX) +
			axisExtent(bx.minY, bx.minY2, bx.maxY2, bx.maxY, pa.Row, pb.Row) - (bx.maxY - bx.minY)
		if d != 0 {
			di += d
			if w != nil {
				dWeighted += w[an[i]] * float64(d)
			}
		}
	}
	for ; j < len(bn); j++ {
		bx := &boxes[bn[j]]
		d := axisExtent(bx.minX, bx.minX2, bx.maxX2, bx.maxX, pb.Col, pa.Col) - (bx.maxX - bx.minX) +
			axisExtent(bx.minY, bx.minY2, bx.maxY2, bx.maxY, pb.Row, pa.Row) - (bx.maxY - bx.minY)
		if d != 0 {
			di += d
			if w != nil {
				dWeighted += w[bn[j]] * float64(d)
			}
		}
	}
	return float64(di), dWeighted
}

// VisitSwapDeltas calls fn once for every net whose bounding box changes
// when cells a and b exchange positions, passing the net and its old and
// new half-perimeter lengths. It does not modify the placement. Prefer
// SwapDeltaWeighted in hot paths: it computes both objective deltas in
// the same pass with no callback.
func (p *Placement) VisitSwapDeltas(a, b netlist.CellID, fn func(n netlist.NetID, oldLen, newLen float64)) {
	pa, pb := p.pos[a], p.pos[b]
	if pa == pb {
		return
	}
	visit := func(n netlist.NetID, from, to Pos) {
		b := &p.boxes[n]
		if d := b.trialDelta(from, to); d != 0 {
			old := b.length()
			fn(n, old, old+float64(d))
		}
	}
	an, bn := p.nl.CellNets(a), p.nl.CellNets(b)
	i, j := 0, 0
	for i < len(an) && j < len(bn) {
		switch na, nb := an[i], bn[j]; {
		case na == nb: // shared net: box unchanged
			i++
			j++
		case na < nb:
			visit(na, pa, pb)
			i++
		default:
			visit(nb, pb, pa)
			j++
		}
	}
	for ; i < len(an); i++ {
		visit(an[i], pa, pb)
	}
	for ; j < len(bn); j++ {
		visit(bn[j], pb, pa)
	}
}

// HPWLDeltaSwap returns the total HPWL change if cells a and b exchanged
// positions, without modifying the placement.
func (p *Placement) HPWLDeltaSwap(a, b netlist.CellID) float64 {
	d, _ := p.SwapDeltaWeighted(a, b, nil)
	return d
}

// topExcluding returns the widest row outside {ra, rb}, rows whose
// width a trial is about to change. When both top-two rows are the
// changed rows themselves, 0 is returned; that is safe because the
// changed rows then dominate: a swap preserves their summed width, so
// max(new widths) ≥ (top1+top2)/2 ≥ top2 ≥ any third row.
func (p *Placement) topExcluding(ra, rb int32) int {
	if p.top1Row != ra && p.top1Row != rb {
		return p.top1W
	}
	if p.top2Row >= 0 && p.top2Row != ra && p.top2Row != rb {
		return p.top2W
	}
	return 0
}

// MaxRowWidthAfterSwap returns the area objective's value if cells a and
// b exchanged positions, without modifying the placement. O(1) via the
// top-two row cache.
func (p *Placement) MaxRowWidthAfterSwap(a, b netlist.CellID) int {
	ra, rb := p.pos[a].Row, p.pos[b].Row
	if ra == rb {
		return p.top1W
	}
	wa, wb := p.nl.Cells[a].Width, p.nl.Cells[b].Width
	if wa == wb {
		return p.top1W
	}
	na := p.rowWidth[ra] + wb - wa
	nb := p.rowWidth[rb] + wa - wb
	m := p.topExcluding(ra, rb)
	if na > m {
		m = na
	}
	if nb > m {
		m = nb
	}
	return m
}

// updateRowWidth applies a width delta to one row and maintains the
// top-two cache, falling back to an O(rows) rescan only when a top row
// shrinks below the known runner-up.
func (p *Placement) updateRowWidth(row int32, delta int) {
	w := p.rowWidth[row] + delta
	p.rowWidth[row] = w
	switch {
	case row == p.top1Row:
		if w >= p.top2W {
			p.top1W = w
		} else {
			p.refreshTopRows()
		}
	case row == p.top2Row:
		switch {
		case w > p.top1W:
			p.top2W, p.top2Row = p.top1W, p.top1Row
			p.top1W, p.top1Row = w, row
		case delta > 0:
			p.top2W = w
		default:
			p.refreshTopRows()
		}
	case w > p.top1W:
		p.top2W, p.top2Row = p.top1W, p.top1Row
		p.top1W, p.top1Row = w, row
	case w > p.top2W:
		p.top2W, p.top2Row = w, row
	}
}

// Canonicalize rebuilds the top-two row cache from scratch, so that the
// placement holds exactly what Import of its permutation would build.
// Incremental updates keep both widths exact, but among rows of equal
// width they can name a different row than a fresh scan does; the
// widths alone decide MaxRowWidthAfterSwap, so only an exact copy of the
// state needs this. O(rows).
func (p *Placement) Canonicalize() { p.refreshTopRows() }

// refreshTopRows rebuilds the top-two row cache from scratch. O(rows).
func (p *Placement) refreshTopRows() {
	t1w, t2w := -1, -1
	t1r, t2r := int32(-1), int32(-1)
	for r, w := range p.rowWidth {
		if w > t1w {
			t2w, t2r = t1w, t1r
			t1w, t1r = w, int32(r)
		} else if w > t2w {
			t2w, t2r = w, int32(r)
		}
	}
	p.top1W, p.top1Row = t1w, t1r
	p.top2W, p.top2Row = t2w, t2r
}

// commitNet moves one of net n's pins from `from` to `to` in the net's
// box and returns the net's half-perimeter change, trialDelta's value
// against the box before the move. Nets of up to smallNetPins pins
// update their statistics in place (smallAxis). Larger nets update in
// place when the moved pin sits strictly between the runner-up
// statistics (commitAxis) and otherwise fall back to an O(degree) pin
// rescan, which reads p.pos: callers commit the positions first.
func (p *Placement) commitNet(n netlist.NetID, from, to Pos) int32 {
	b := &p.boxes[n]
	d := b.trialDelta(from, to)
	if k := len(p.nl.Pins(n)); k <= smallNetPins {
		b.minX, b.minX2, b.maxX2, b.maxX = smallAxis(k, b.minX, b.minX2, b.maxX2, b.maxX, from.Col, to.Col)
		b.minY, b.minY2, b.maxY2, b.maxY = smallAxis(k, b.minY, b.minY2, b.maxY2, b.maxY, from.Row, to.Row)
		return d
	}
	loX, loX2, hiX2, hiX, okX := commitAxis(b.minX, b.minX2, b.maxX2, b.maxX, from.Col, to.Col)
	if okX {
		loY, loY2, hiY2, hiY, okY := commitAxis(b.minY, b.minY2, b.maxY2, b.maxY, from.Row, to.Row)
		if okY {
			*b = netBox{
				minX: loX, minX2: loX2, maxX2: hiX2, maxX: hiX,
				minY: loY, minY2: loY2, maxY2: hiY2, maxY: hiY,
			}
			return d
		}
	}
	*b = p.scanBox(n)
	return d
}

// SwapCells exchanges the positions of two cells and updates all
// maintained quantities incrementally. Swapping a cell with itself is a
// no-op.
func (p *Placement) SwapCells(a, b netlist.CellID) {
	p.SwapCellsWeighted(a, b, nil)
}

// SwapCellsWeighted exchanges the positions of two cells, like
// SwapCells, and returns what SwapDeltaWeighted(a, b, w) returned just
// before the swap, bit for bit. One merge walk in ascending net id
// scores each net exactly as SwapDeltaWeighted does and commits its box
// in the same step (commitNet), so a committed move costs one delta
// walk rather than a delta walk plus a commit walk. Pass w == nil to
// skip the weighted sum. Swapping a cell with itself is a no-op.
func (p *Placement) SwapCellsWeighted(a, b netlist.CellID, w []float64) (dLen, dWeighted float64) {
	if a == b {
		return 0, 0
	}
	pa, pb := p.pos[a], p.pos[b]

	// Positions first: a large net's rescan fallback reads them.
	p.pos[a], p.pos[b] = pb, pa
	sa, sb := p.slotOf[a], p.slotOf[b]
	p.slotOf[a], p.slotOf[b] = sb, sa
	p.slot[sa], p.slot[sb] = b, a

	// Row widths and the top-two cache.
	if pa.Row != pb.Row {
		wa, wb := p.nl.Cells[a].Width, p.nl.Cells[b].Width
		if wa != wb {
			p.updateRowWidth(pa.Row, wb-wa)
			p.updateRowWidth(pb.Row, wa-wb)
		}
	}

	// Net boxes and total HPWL; nets carrying both cells keep their box.
	an, bn := p.nl.CellNets(a), p.nl.CellNets(b)
	var di int32
	i, j := 0, 0
	for i < len(an) || j < len(bn) {
		var n netlist.NetID
		var from, to Pos
		switch {
		case j == len(bn) || i < len(an) && an[i] < bn[j]:
			n, from, to = an[i], pa, pb
			i++
		case i == len(an) || bn[j] < an[i]:
			n, from, to = bn[j], pb, pa
			j++
		default: // shared net: box unchanged
			i++
			j++
			continue
		}
		if d := p.commitNet(n, from, to); d != 0 {
			di += d
			if w != nil {
				dWeighted += w[n] * float64(d)
			}
		}
	}
	p.hpwl += float64(di)
	return float64(di), dWeighted
}

// Randomize shuffles all cells across all slots using r.
func (p *Placement) Randomize(r *rand.Rand) {
	n := p.nl.NumCells()
	slots := p.L.Slots()
	perm := r.Perm(slots)
	for i := range p.slot {
		p.slot[i] = netlist.None
	}
	for c := 0; c < n; c++ {
		p.place(netlist.CellID(c), perm[c])
	}
	p.recomputeAll()
}

// Export returns the placement as a permutation: element c is the linear
// slot index of cell c. The result is independent of p's internals and
// safe to send between workers.
func (p *Placement) Export() []int32 {
	return p.ExportInto(nil)
}

// ExportInto writes the permutation into dst (reallocating only when it
// is too small) and returns it; the allocation-free variant of Export
// for callers that reuse a buffer across reports. The permutation is
// maintained by every change of assignment, so this is a copy.
func (p *Placement) ExportInto(dst []int32) []int32 {
	n := len(p.slotOf)
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	copy(dst, p.slotOf)
	return dst
}

// Import replaces the assignment with the given exported permutation and
// rebuilds the maintained quantities. It validates lengths, bounds and
// slot uniqueness.
func (p *Placement) Import(perm []int32) error {
	if len(perm) != p.nl.NumCells() {
		return fmt.Errorf("placement: import length %d != %d cells", len(perm), p.nl.NumCells())
	}
	if p.importSeen == nil {
		p.importSeen = make([]bool, p.L.Slots())
	}
	seen := p.importSeen
	for i := range seen {
		seen[i] = false
	}
	for c, s := range perm {
		if s < 0 || int(s) >= p.L.Slots() {
			return fmt.Errorf("placement: import: cell %d slot %d out of range", c, s)
		}
		if seen[s] {
			return fmt.Errorf("placement: import: slot %d assigned twice", s)
		}
		seen[s] = true
	}
	for i := range p.slot {
		p.slot[i] = netlist.None
	}
	for c, s := range perm {
		p.place(netlist.CellID(c), int(s))
	}
	p.recomputeAll()
	return nil
}

// Clone returns an independent deep copy sharing only the immutable
// netlist.
func (p *Placement) Clone() *Placement {
	q := &Placement{
		nl:        p.nl,
		L:         p.L,
		pos:       append([]Pos(nil), p.pos...),
		slotOf:    append([]int32(nil), p.slotOf...),
		slot:      append([]netlist.CellID(nil), p.slot...),
		boxes:     append([]netBox(nil), p.boxes...),
		hpwl:      p.hpwl,
		rowWidth:  append([]int(nil), p.rowWidth...),
		top1W:     p.top1W,
		top2W:     p.top2W,
		top1Row:   p.top1Row,
		top2Row:   p.top2Row,
		cellWidth: p.cellWidth, // immutable, shared like the netlist
	}
	return q
}

// CopyFrom overwrites p's assignment and every maintained quantity with
// src's, reusing p's storage. Both must place the same netlist on the
// same layout.
func (p *Placement) CopyFrom(src *Placement) {
	if p.nl != src.nl || p.L != src.L {
		panic("placement: CopyFrom between placements of different circuits or layouts")
	}
	copy(p.pos, src.pos)
	copy(p.slotOf, src.slotOf)
	copy(p.slot, src.slot)
	copy(p.boxes, src.boxes)
	p.hpwl = src.hpwl
	copy(p.rowWidth, src.rowWidth)
	p.top1W, p.top2W = src.top1W, src.top2W
	p.top1Row, p.top2Row = src.top1Row, src.top2Row
}

// ASCII renders small placements as a grid of cell names for examples
// and debugging; layouts wider than maxCols columns render as a summary
// line instead.
func (p *Placement) ASCII(maxCols int) string {
	if p.L.Cols > maxCols {
		return fmt.Sprintf("[%dx%d layout, hpwl=%.0f, maxRowWidth=%d]",
			p.L.Rows, p.L.Cols, p.hpwl, p.top1W)
	}
	var sb strings.Builder
	for r := 0; r < p.L.Rows; r++ {
		for c := 0; c < p.L.Cols; c++ {
			id := p.slot[r*p.L.Cols+c]
			if id == netlist.None {
				sb.WriteString(fmt.Sprintf("%-8s", "."))
			} else {
				sb.WriteString(fmt.Sprintf("%-8s", p.nl.Cells[id].Name))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
