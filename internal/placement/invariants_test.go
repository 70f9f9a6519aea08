package placement

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pts/internal/netlist"
)

// This file is the drift catcher for the incremental engine: long random
// swap sequences, after each of which every maintained quantity — net
// boxes with their runner-up statistics, total HPWL, row widths, and the
// top-two row cache — must exactly match a from-scratch recompute, and
// every trial function must match its brute-force
// clone-apply-recompute oracle. Swaps never change which slots are
// empty; an occasional Import of a fresh random layout does, the way the
// search's barrier Restore reaches such states.

// checkConsistency compares all of p's maintained state against a
// from-scratch recompute.
func checkConsistency(p *Placement) error {
	for c := range p.nl.NumCells() {
		s := p.L.SlotIndex(p.pos[c])
		if int(p.slotOf[c]) != s {
			return fmt.Errorf("cell %d slot index drifted: have %d want %d", c, p.slotOf[c], s)
		}
		if p.slot[s] != netlist.CellID(c) {
			return fmt.Errorf("slot %d holds cell %d, want %d", s, p.slot[s], c)
		}
	}
	hpwl := 0.0
	for n := 0; n < p.nl.NumNets(); n++ {
		ref := p.scanBox(netlist.NetID(n))
		if got := p.boxes[n]; got != ref {
			return fmt.Errorf("net %d box drifted: have %+v want %+v", n, got, ref)
		}
		hpwl += ref.length()
	}
	if math.Abs(hpwl-p.hpwl) > 1e-6*(1+math.Abs(hpwl)) {
		return fmt.Errorf("hpwl drifted: have %v want %v", p.hpwl, hpwl)
	}
	widths := make([]int, p.L.Rows)
	for c := 0; c < p.nl.NumCells(); c++ {
		widths[p.pos[c].Row] += p.nl.Cells[c].Width
	}
	for r, w := range widths {
		if p.rowWidth[r] != w {
			return fmt.Errorf("row %d width drifted: have %d want %d", r, p.rowWidth[r], w)
		}
	}
	// Top-two invariants. The cached rows may differ from a fresh rescan
	// on ties, so check the defining properties, not the identities.
	max1 := 0
	for _, w := range widths {
		if w > max1 {
			max1 = w
		}
	}
	if p.top1W != max1 || widths[p.top1Row] != p.top1W {
		return fmt.Errorf("top1 drifted: have (w=%d,row=%d) want max %d", p.top1W, p.top1Row, max1)
	}
	if p.L.Rows > 1 {
		max2 := -1
		for r, w := range widths {
			if int32(r) != p.top1Row && w > max2 {
				max2 = w
			}
		}
		if p.top2Row == p.top1Row || p.top2W != max2 || widths[p.top2Row] != p.top2W {
			return fmt.Errorf("top2 drifted: have (w=%d,row=%d) want runner-up %d (top1 row %d)",
				p.top2W, p.top2Row, max2, p.top1Row)
		}
	}
	return nil
}

// boundaryNetlist is a small random circuit for the wide-layout inputs:
// enough cells and shared nets that batch merge walks hit the two-sided,
// one-sided and shared-net cases.
func boundaryNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	const gates = 48
	nl := &netlist.Netlist{Name: "boundary"}
	nl.Cells = append(nl.Cells, netlist.Cell{Name: "pi", Width: 2, Kind: netlist.Input})
	for i := 0; i < gates; i++ {
		nl.Cells = append(nl.Cells, netlist.Cell{
			Name:  "g" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Width: 1 + r.Intn(4), Delay: 0.1, Kind: netlist.Gate,
		})
	}
	nl.Cells = append(nl.Cells, netlist.Cell{Name: "po", Width: 2, Kind: netlist.Output})
	// One net per gate, driven by an earlier cell so the circuit stays
	// acyclic, with 1-4 random later sinks (the last net feeds po).
	for i := 0; i < gates; i++ {
		drv := netlist.CellID(r.Intn(i + 1)) // 0 = pi or an earlier gate
		sinks := []netlist.CellID{netlist.CellID(i + 1)}
		for s := r.Intn(4); s > 0; s-- {
			sk := netlist.CellID(i + 1 + r.Intn(gates+1-i))
			dup := sk == drv
			for _, have := range sinks {
				dup = dup || sk == have
			}
			if !dup {
				sinks = append(sinks, sk)
			}
		}
		nl.Nets = append(nl.Nets, netlist.Net{Name: "n", Driver: drv, Sinks: sinks})
	}
	if err := nl.Finish(); err != nil {
		t.Fatal(err)
	}
	return nl
}

// wideLayout's column indices run to 32768, one past what int16 can
// hold, so the large-coordinate end of the int32 box layout stays
// covered.
var wideLayout = Layout{Rows: 2, Cols: 32769}

// importRandom replaces p's layout with a fresh random permutation
// through Import, which moves the set of empty slots.
func importRandom(t *testing.T, p *Placement, r *rand.Rand) {
	t.Helper()
	perm := make([]int32, p.nl.NumCells())
	for c, s := range r.Perm(p.L.Slots())[:len(perm)] {
		perm[c] = int32(s)
	}
	if err := p.Import(perm); err != nil {
		t.Fatal(err)
	}
}

// randomPair returns two distinct random cells.
func randomPair(r *rand.Rand, cells int) (netlist.CellID, netlist.CellID) {
	a := netlist.CellID(r.Intn(cells))
	b := netlist.CellID(r.Intn(cells))
	for b == a {
		b = netlist.CellID(r.Intn(cells))
	}
	return a, b
}

func TestMoveThenSwapConsistency(t *testing.T) {
	// Interleave swaps with imports of fresh random layouts and check the
	// oracle throughout.
	nl := testNetlist(t, 50, 25)
	p, _ := New(nl, AutoLayout(nl, 0.8))
	r := rand.New(rand.NewSource(17))
	p.Randomize(r)
	for i := 0; i < 200; i++ {
		if r.Intn(8) == 0 {
			importRandom(t, p, r)
		} else {
			a := netlist.CellID(r.Intn(nl.NumCells()))
			b := netlist.CellID(r.Intn(nl.NumCells()))
			p.SwapCells(a, b)
		}
	}
	if math.Abs(p.HPWL()-fullHPWL(p)) > 1e-6 {
		t.Fatal("HPWL diverged under swaps and imports")
	}
	if p.MaxRowWidth() != fullMaxRowWidth(p) {
		t.Fatal("row widths diverged under swaps and imports")
	}
	// Slot table still consistent.
	for c := 0; c < nl.NumCells(); c++ {
		if p.CellAt(p.PosOf(netlist.CellID(c))) != netlist.CellID(c) {
			t.Fatal("slot table inconsistent")
		}
	}
}

// TestSlotIndexTracksEveryChange: the slot-index array that Export
// copies, like every other maintained quantity, matches a recompute
// after each way an assignment changes: New, Randomize, swaps, Import,
// Clone and CopyFrom.
func TestSlotIndexTracksEveryChange(t *testing.T) {
	nl := testNetlist(t, 60, 9)
	p, err := New(nl, AutoLayout(nl, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, q *Placement) {
		t.Helper()
		if err := checkConsistency(q); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		want := make([]int32, nl.NumCells())
		for c := range want {
			want[c] = int32(q.L.SlotIndex(q.PosOf(netlist.CellID(c))))
		}
		if got := q.Export(); !slices.Equal(got, want) {
			t.Fatalf("after %s: Export = %v, want %v", what, got, want)
		}
	}
	swaps := func(q *Placement, r *rand.Rand) {
		for range 50 {
			a, b := randomPair(r, nl.NumCells())
			q.SwapCells(a, b)
		}
	}
	r := rand.New(rand.NewSource(3))
	check("New", p)
	p.Randomize(r)
	check("Randomize", p)
	swaps(p, r)
	check("swaps", p)
	importRandom(t, p, r)
	check("Import", p)
	q := p.Clone()
	check("Clone", q)
	swaps(q, r)
	importRandom(t, q, r)
	swaps(q, r)
	check("swaps on the clone", q)
	check("swaps on the clone (original)", p)
	p.CopyFrom(q)
	check("CopyFrom", p)
	if !slices.Equal(p.Export(), q.Export()) {
		t.Fatal("CopyFrom exported another permutation than its source")
	}
	swaps(p, r)
	check("swaps after CopyFrom", p)
	check("swaps after CopyFrom (source)", q)
}

func TestIncrementalMatchesRecomputeUnderRandomOps(t *testing.T) {
	nl := testNetlist(t, 120, 7)
	boundary := boundaryNetlist(t)
	for _, tc := range []struct {
		name    string
		nl      *netlist.Netlist
		l       Layout
		imports bool
	}{
		{"full-grid", nl, AutoLayout(nl, 1.0), false},  // swaps only (no empty slots)
		{"spare-slots", nl, AutoLayout(nl, 0.8), true}, // swaps + imports
		{"wide-grid", boundary, wideLayout, true},      // coordinates past int16
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.nl, tc.l)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(11))
			p.Randomize(r)
			cells := tc.nl.NumCells()
			for step := 0; step < 4000; step++ {
				if tc.imports && r.Intn(64) == 0 {
					importRandom(t, p, r)
				} else {
					a, b := randomPair(r, cells)
					wantD := p.HPWLDeltaSwap(a, b)
					wantArea := p.MaxRowWidthAfterSwap(a, b)
					before := p.HPWL()
					p.SwapCells(a, b)
					if got := p.HPWL() - before; math.Abs(got-wantD) > 1e-6 {
						t.Fatalf("step %d: HPWLDeltaSwap predicted %v, commit yielded %v", step, wantD, got)
					}
					if p.MaxRowWidth() != wantArea {
						t.Fatalf("step %d: MaxRowWidthAfterSwap predicted %d, commit yielded %d",
							step, wantArea, p.MaxRowWidth())
					}
				}
				// Full-state audit periodically plus the final step; every
				// step would make the test quadratic in sequence length.
				if step%97 == 0 || step == 3999 {
					if err := checkConsistency(p); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
		})
	}
}

func TestSwapDeltaWeightedMatchesVisit(t *testing.T) {
	nl := testNetlist(t, 90, 3)
	p, err := New(nl, AutoLayout(nl, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	p.Randomize(r)
	w := make([]float64, nl.NumNets())
	for n := range w {
		w[n] = r.Float64()
	}
	for trial := 0; trial < 500; trial++ {
		a, b := randomPair(r, nl.NumCells())
		wantLen, wantW := 0.0, 0.0
		p.VisitSwapDeltas(a, b, func(n netlist.NetID, oldLen, newLen float64) {
			wantLen += newLen - oldLen
			wantW += w[n] * (newLen - oldLen)
		})
		gotLen, gotW := p.SwapDeltaWeighted(a, b, w)
		if math.Abs(gotLen-wantLen) > 1e-9 || math.Abs(gotW-wantW) > 1e-9 {
			t.Fatalf("trial %d: SwapDeltaWeighted = (%v,%v), visit oracle = (%v,%v)",
				trial, gotLen, gotW, wantLen, wantW)
		}
		p.SwapCells(a, b)
	}
}

// TestSwapCellsWeightedMatchesDelta holds the one-walk commit to the
// trial it replays: over long random swap sequences, broken by an
// occasional Import of a fresh random layout, SwapCellsWeighted must
// return bit for bit what SwapDeltaWeighted returned just before the
// commit, and every maintained quantity must match a from-scratch
// recompute after every step. The circuits cover in-place commits of
// 2-, 3- and 4-pin nets, the commitAxis path and rescan fallback of
// larger nets, and shared nets; the test counts each case so a circuit
// change cannot quietly drop one.
func TestSwapCellsWeightedMatchesDelta(t *testing.T) {
	boundary := boundaryNetlist(t)
	for _, tc := range []struct {
		name  string
		nl    *netlist.Netlist
		l     Layout
		steps int
	}{
		{"c532", netlist.MustBenchmark("c532"), Layout{}, 3000},
		{"c1355", netlist.MustBenchmark("c1355"), Layout{}, 1500},
		{"boundary", boundary, Layout{}, 3000},
		{"boundary-wide", boundary, wideLayout, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.l
			if l.Rows == 0 {
				l = AutoLayout(tc.nl, 0.9)
			}
			p, err := New(tc.nl, l)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(31))
			p.Randomize(r)
			w := make([]float64, tc.nl.NumNets())
			for n := range w {
				w[n] = r.Float64()
			}
			cells := tc.nl.NumCells()
			var byDegree [6]int // committed nets by pin count, 5 = 5+
			shared := 0
			for step := 0; step < tc.steps; step++ {
				if r.Intn(64) == 0 {
					importRandom(t, p, r)
				} else {
					a, b := randomPair(r, cells)
					wv := w
					if step%5 == 0 {
						wv = nil
					}
					for _, n := range tc.nl.CellNets(a) {
						k := min(len(tc.nl.Pins(n)), 5)
						byDegree[k]++
						for _, m := range tc.nl.CellNets(b) {
							if m == n {
								shared++
							}
						}
					}
					wantL, wantW := p.SwapDeltaWeighted(a, b, wv)
					before := p.HPWL()
					gotL, gotW := p.SwapCellsWeighted(a, b, wv)
					if math.Float64bits(gotL) != math.Float64bits(wantL) ||
						math.Float64bits(gotW) != math.Float64bits(wantW) {
						t.Fatalf("step %d swap (%d,%d): commit returned (%v,%v), trial (%v,%v)",
							step, a, b, gotL, gotW, wantL, wantW)
					}
					if got := p.HPWL() - before; got != wantL {
						t.Fatalf("step %d swap (%d,%d): HPWL changed by %v, trial said %v", step, a, b, got, wantL)
					}
				}
				if err := checkConsistency(p); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			for k := 2; k <= 5; k++ {
				if byDegree[k] == 0 {
					t.Errorf("no swap touched a net of %d pins", k)
				}
			}
			if shared == 0 {
				t.Error("no swap touched a shared net")
			}
		})
	}
}

// TestSwapObjectivesBatchMatchesScalar fuzzes the batched trial kernel
// against its scalar oracle: thousands of random candidate batches, each
// compared bit-for-bit against per-candidate SwapDeltaWeighted +
// MaxRowWidthAfterSwap. Batch sizes straddle the internal sort threshold
// so both the generation-order and sorted visit paths are exercised, the
// placement mutates between batches, candidates include degenerate a==b
// pairs, and every fifth batch runs unweighted (nil w). The wide-grid
// input repeats the fuzz with coordinates past the int16 range.
func TestSwapObjectivesBatchMatchesScalar(t *testing.T) {
	nl := testNetlist(t, 120, 7)
	boundary := boundaryNetlist(t)
	for _, tc := range []struct {
		name string
		nl   *netlist.Netlist
		l    Layout
	}{
		{"auto-layout", nl, AutoLayout(nl, 0.9)},
		{"wide-grid", boundary, wideLayout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.nl, tc.l)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(23))
			p.Randomize(r)
			w := make([]float64, tc.nl.NumNets())
			for n := range w {
				w[n] = r.Float64()
			}
			cells := tc.nl.NumCells()
			const maxBatch = 64
			cands := make([]SwapCand, 0, maxBatch)
			dLen := make([]float64, maxBatch)
			dW := make([]float64, maxBatch)
			area := make([]float64, maxBatch)
			for batch := 0; batch < 2500; batch++ {
				n := 1 + r.Intn(maxBatch) // straddles batchSortMin
				cands = cands[:0]
				for i := 0; i < n; i++ {
					a := netlist.CellID(r.Intn(cells))
					b := netlist.CellID(r.Intn(cells)) // a == b allowed
					cands = append(cands, SwapCand{A: a, B: b})
				}
				wv := w
				if batch%5 == 0 {
					wv = nil
				}
				p.SwapObjectivesBatch(cands, wv, dLen, dW, area)
				for i, c := range cands {
					wantL, wantW := p.SwapDeltaWeighted(c.A, c.B, wv)
					wantA := float64(p.MaxRowWidthAfterSwap(c.A, c.B))
					if math.Float64bits(dLen[i]) != math.Float64bits(wantL) ||
						math.Float64bits(dW[i]) != math.Float64bits(wantW) ||
						math.Float64bits(area[i]) != math.Float64bits(wantA) {
						t.Fatalf("batch %d cand %d (%d,%d): batch=(%v,%v,%v) scalar=(%v,%v,%v)",
							batch, i, c.A, c.B, dLen[i], dW[i], area[i], wantL, wantW, wantA)
					}
				}
				a, b := randomPair(r, cells)
				p.SwapCells(a, b) // batches must agree on every placement, not just one
			}
		})
	}
}

// TestSwapObjectivesBatchAllocFree asserts the batched kernel keeps the
// zero-allocation contract once its scratch is warm.
func TestSwapObjectivesBatchAllocFree(t *testing.T) {
	nl := netlist.MustBenchmark("c532")
	p, err := New(nl, AutoLayout(nl, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	p.Randomize(r)
	w := make([]float64, nl.NumNets())
	cands := make([]SwapCand, 64)
	for i := range cands {
		a, b := randomPair(r, nl.NumCells())
		cands[i] = SwapCand{A: a, B: b}
	}
	dLen := make([]float64, len(cands))
	dW := make([]float64, len(cands))
	area := make([]float64, len(cands))
	p.SwapObjectivesBatch(cands, w, dLen, dW, area) // warm the key scratch
	if allocs := testing.AllocsPerRun(200, func() {
		p.SwapObjectivesBatch(cands, w, dLen, dW, area)
	}); allocs != 0 {
		t.Errorf("SwapObjectivesBatch allocates %.1f per batch, want 0", allocs)
	}
}

// TestTrialEvaluationAllocFree asserts the zero-allocation contract of
// the trial kernel; the CI bench-smoke job runs it with -benchmem to
// catch regressions by numbers too.
func TestTrialEvaluationAllocFree(t *testing.T) {
	nl := netlist.MustBenchmark("c532")
	p, err := New(nl, AutoLayout(nl, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(1)))
	w := make([]float64, nl.NumNets())
	a, b := netlist.CellID(3), netlist.CellID(251)
	for name, fn := range map[string]func(){
		"SwapDeltaWeighted":    func() { p.SwapDeltaWeighted(a, b, w) },
		"HPWLDeltaSwap":        func() { p.HPWLDeltaSwap(a, b) },
		"MaxRowWidthAfterSwap": func() { p.MaxRowWidthAfterSwap(a, b) },
		"SwapCellsWeighted":    func() { p.SwapCellsWeighted(a, b, w) },
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, allocs)
		}
	}
}
