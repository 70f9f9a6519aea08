package placement

import (
	"slices"

	"pts/internal/netlist"
)

// Batched trial evaluation: the data-parallel counterpart of
// SwapDeltaWeighted + MaxRowWidthAfterSwap. One call evaluates a whole
// candidate batch with the per-trial call overhead paid once: the CSR
// adjacency, the net-box array, the position array and the row/width
// state are hoisted into locals for the duration of the batch, and every
// box delta is computed by the same runner-up-statistics walk the scalar
// kernel uses, in one branch-light loop the out-of-order core can
// overlap across candidates. Batches large enough for the working set to
// fall out of cache are additionally visited in ascending first-cell
// order so neighboring candidates share net-box and row-cache loads.
//
// Determinism contract: for every candidate i the three outputs are
// bit-for-bit the values the scalar calls would produce — the merge walk
// visits affected nets in globally ascending net id exactly like
// SwapDeltaWeighted, so the float accumulation order is identical, and
// results land at the candidate's own index regardless of the internal
// visit order.

// SwapCand is one candidate pairwise exchange of a data-parallel
// evaluation batch, in cell-id terms.
type SwapCand struct {
	A, B netlist.CellID
}

// batchSortMin is the batch size from which SwapObjectivesBatch visits
// candidates in ascending first-cell order. Below it the sort costs more
// than the shared loads buy: at CLW batch sizes the boxes and CSR rows
// of benchmark-scale circuits are cache-resident anyway (profiling shows
// the sort at ~20% of batch time with no offsetting hit-rate gain), so
// sorting only pays once batches are large enough to thrash cache.
const batchSortMin = 512

// SwapObjectivesBatch evaluates every candidate swap's trial
// objectives against the current placement, without modifying it and
// without allocating (given warm scratch). For candidate i it writes:
//
//	dLen[i]      — the total HPWL change (SwapDeltaWeighted's first result)
//	dWeighted[i] — the w-weighted HPWL change (its second result)
//	area[i]      — the post-swap area objective (MaxRowWidthAfterSwap)
//
// w is indexed by net id (pass nil to skip the weighted sum, as in
// SwapDeltaWeighted); its entries must be finite. The three output
// slices must each have at least len(cands) elements.
func (p *Placement) SwapObjectivesBatch(cands []SwapCand, w []float64, dLen, dWeighted, area []float64) {
	n := len(cands)
	if n == 0 {
		return
	}
	if w == nil {
		// A zero weight vector reproduces the nil-w scalar result (a
		// weighted delta of exactly +0.0) without a branch in the walk.
		if len(p.batchZeroW) < p.nl.NumNets() {
			p.batchZeroW = make([]float64, p.nl.NumNets())
		}
		w = p.batchZeroW
	}

	// Large batches are visited in ascending first-cell order so
	// candidates touching the same region walk the same stretch of the
	// CSR adjacency and net-box arrays back to back. The original index
	// rides in the key's low half; results are written through it, so the
	// visit order is invisible to callers. Small (hot-loop) batches skip
	// the key indirection entirely.
	sorted := n >= batchSortMin
	keys := p.batchKeys
	if sorted {
		if cap(keys) < n {
			keys = make([]int64, n)
			p.batchKeys = keys
		}
		keys = keys[:n]
		for i, c := range cands {
			keys[i] = int64(c.A)<<32 | int64(uint32(i))
		}
		slices.Sort(keys)
	} else {
		keys = nil
	}

	p.swapBatch(cands, keys, w, dLen, dWeighted, area)
}

// swapBatch is the batch kernel: the merge walk, arithmetic and serial
// accumulation order are exactly SwapDeltaWeighted's. keys is nil for
// unsorted (small) batches.
//
// The per-net delta is trialDelta's arithmetic written out in the loop
// (axisExtent inlines; the composed trialDelta would cost a call per
// net).
func (p *Placement) swapBatch(cands []SwapCand, keys []int64, w []float64, dLen, dWeighted, area []float64) {
	// Batch-wide hoists: one load each instead of one per trial.
	pos := p.pos
	boxes := p.boxes
	off, flat := p.nl.CellNetsCSR()
	widths := p.cellWidth
	rowW := p.rowWidth
	top1W, top2W := p.top1W, p.top2W
	top1Row, top2Row := p.top1Row, p.top2Row

	for t := 0; t < len(cands); t++ {
		idx := t
		if keys != nil { // loop-invariant: predicted perfectly
			idx = int(uint32(keys[t]))
		}
		a, b := cands[idx].A, cands[idx].B
		pa, pb := pos[a], pos[b]
		paCol, paRow := pa.Col, pa.Row
		pbCol, pbRow := pb.Col, pb.Row
		var di int32
		var dW float64
		if pa != pb {
			// Merge walk over the two sorted CSR net lists, skipping
			// shared nets; identical structure, arithmetic and
			// accumulation order to SwapDeltaWeighted.
			an := flat[off[a]:off[a+1]]
			bn := flat[off[b]:off[b+1]]
			i, j := 0, 0
			for i < len(an) && j < len(bn) {
				na, nb := an[i], bn[j]
				if na == nb { // shared net: box unchanged
					i++
					j++
					continue
				}
				nid := na
				fc, tc, fr, tr := paCol, pbCol, paRow, pbRow
				if na > nb {
					nid = nb
					fc, tc, fr, tr = pbCol, paCol, pbRow, paRow
					j++
				} else {
					i++
				}
				bx := &boxes[nid]
				d := axisExtent(bx.minX, bx.minX2, bx.maxX2, bx.maxX, fc, tc) - (bx.maxX - bx.minX) +
					axisExtent(bx.minY, bx.minY2, bx.maxY2, bx.maxY, fr, tr) - (bx.maxY - bx.minY)
				if d != 0 {
					di += d
					dW += w[nid] * float64(d)
				}
			}
			for ; i < len(an); i++ {
				nid := an[i]
				bx := &boxes[nid]
				d := axisExtent(bx.minX, bx.minX2, bx.maxX2, bx.maxX, paCol, pbCol) - (bx.maxX - bx.minX) +
					axisExtent(bx.minY, bx.minY2, bx.maxY2, bx.maxY, paRow, pbRow) - (bx.maxY - bx.minY)
				if d != 0 {
					di += d
					dW += w[nid] * float64(d)
				}
			}
			for ; j < len(bn); j++ {
				nid := bn[j]
				bx := &boxes[nid]
				d := axisExtent(bx.minX, bx.minX2, bx.maxX2, bx.maxX, pbCol, paCol) - (bx.maxX - bx.minX) +
					axisExtent(bx.minY, bx.minY2, bx.maxY2, bx.maxY, pbRow, paRow) - (bx.maxY - bx.minY)
				if d != 0 {
					di += d
					dW += w[nid] * float64(d)
				}
			}
		}
		dLen[idx] = float64(di)
		dWeighted[idx] = dW

		// Area via the top-two row cache, inlined MaxRowWidthAfterSwap.
		m := top1W
		if ra, rb := pa.Row, pb.Row; ra != rb {
			wa, wb := widths[a], widths[b]
			if wa != wb {
				na := rowW[ra] + int(wb-wa)
				nb := rowW[rb] + int(wa-wb)
				// topExcluding(ra, rb), inlined.
				m = 0
				if top1Row != ra && top1Row != rb {
					m = top1W
				} else if top2Row >= 0 && top2Row != ra && top2Row != rb {
					m = top2W
				}
				if na > m {
					m = na
				}
				if nb > m {
					m = nb
				}
			}
		}
		area[idx] = float64(m)
	}
}
