package cost

import (
	"math"

	"pts/internal/netlist"
	"pts/internal/placement"
	"pts/internal/tabu"
)

// Batched trial evaluation: the evaluator-level half of the
// data-parallel hot path. The placement kernel produces the three raw
// objective deltas for the whole batch in one fused pass
// (placement.SwapObjectivesBatch), and the fold below turns them into
// fuzzy cost deltas with the membership and OWA arithmetic inlined. The
// fold is written term for term like fuzzy.Membership.Eval and
// OWA.Combine — the same piecewise-linear divisions, the same
// expression tree — so every out[i] is bit-for-bit the value SwapDelta
// would return.

// batchScratch holds one evaluator's reusable batch buffers; sized to
// the largest batch seen, so steady-state evaluation allocates nothing.
type batchScratch struct {
	cands []placement.SwapCand
	dLen  []float64
	dW    []float64
	area  []float64
}

// grow ensures capacity for n candidates.
func (sc *batchScratch) grow(n int) {
	if cap(sc.cands) < n {
		sc.cands = make([]placement.SwapCand, 0, n)
		sc.dLen = make([]float64, n)
		sc.dW = make([]float64, n)
		sc.area = make([]float64, n)
	}
}

// DeltaSwapBatch writes, for every candidate i, the cost change
// SwapDelta(cands[i].A, cands[i].B) would return — in one data-parallel
// pass instead of len(cands) scalar calls, bit-exactly. It implements
// the tabu engine's batch boundary (tabu.BatchEvaluator, via Problem);
// out must have at least len(cands) elements.
func (e *Evaluator) DeltaSwapBatch(cands []tabu.SwapCand, out []float64) {
	n := len(cands)
	if n == 0 {
		return
	}
	sc := &e.batch
	sc.grow(n)
	pc := sc.cands[:0]
	for _, c := range cands {
		pc = append(pc, placement.SwapCand{A: netlist.CellID(c.A), B: netlist.CellID(c.B)})
	}
	dLen, dW, area := sc.dLen[:n], sc.dW[:n], sc.area[:n]
	e.p.SwapObjectivesBatch(pc, e.t.Criticalities(), dLen, dW, area)
	e.fold(cands, dLen, dW, area, out)
}

// fold folds raw objective deltas into fuzzy cost deltas with the
// arithmetic mirroring CostOf exactly: membership is the same
// piecewise-linear division, the OWA combine the same min/sum
// expression tree, so every out[i] is bit-for-bit SwapDelta's value.
func (e *Evaluator) fold(cands []tabu.SwapCand, dLen, dW, area, out []float64) {
	// All evaluator state is hoisted once per batch.
	wl0, dl0 := e.cur.Wirelength, e.cur.Delay
	wireDelay := e.t.Config().WireDelayPerUnit
	cost0 := e.cost
	gWL, cWL := e.memWL.Goal, e.memWL.Ceiling
	gDL, cDL := e.memDelay.Goal, e.memDelay.Ceiling
	gAR, cAR := e.memArea.Goal, e.memArea.Ceiling
	spanWL, spanDL, spanAR := cWL-gWL, cDL-gDL, cAR-gAR
	beta := e.owa.Beta
	omb := 1 - beta
	// Most candidates leave the widest row untouched, so area[i] repeats
	// the same value run after run; memoizing the last membership reuses
	// the division bit-exactly (equal input, equal output).
	lastArea := math.NaN() // never equal to a real area, so slot 0 computes
	var lastMuA float64
	for i := 0; i < len(cands); i++ {
		if cands[i].A == cands[i].B {
			out[i] = 0 // SwapDelta's self-swap short circuit
			continue
		}
		var muW, muD, muA float64
		switch x := wl0 + dLen[i]; {
		case x <= gWL:
			muW = 1
		case x >= cWL:
			muW = 0
		default:
			muW = (cWL - x) / spanWL
		}
		switch x := dl0 + wireDelay*dW[i]; {
		case x <= gDL:
			muD = 1
		case x >= cDL:
			muD = 0
		default:
			muD = (cDL - x) / spanDL
		}
		if x := area[i]; x == lastArea {
			muA = lastMuA
		} else {
			switch {
			case x <= gAR:
				muA = 1
			case x >= cAR:
				muA = 0
			default:
				muA = (cAR - x) / spanAR
			}
			lastArea, lastMuA = x, muA
		}
		mn := muW
		if muD < mn {
			mn = muD
		}
		if muA < mn {
			mn = muA
		}
		sum := muW + muD + muA
		mu := beta*mn + omb*sum/3
		out[i] = (1 - mu) - cost0
	}
}
