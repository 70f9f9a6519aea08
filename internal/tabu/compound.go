package tabu

import "math/rand"

// epsilon below which a delta counts as an improvement; guards float
// round-off from triggering early accepts on no-op moves.
const eps = 1e-12

// CompoundParams shape a compound move, matching the paper's CLW loop:
// Depth steps, each keeping the best of Trials trial swaps whose first
// element is drawn from [RangeLo, RangeHi) and whose second element is
// drawn from the whole space. The range is the probabilistic domain
// decomposition: with distinct ranges, the chance that two workers try
// the same swap is 1/(n-1)² and three can never collide.
type CompoundParams struct {
	Trials int
	Depth  int

	RangeLo, RangeHi int32
}

// normalized returns params with an empty range widened to the whole
// problem and floors applied.
func (p CompoundParams) normalized(size int32) CompoundParams {
	if p.Trials < 1 {
		p.Trials = 1
	}
	if p.Depth < 1 {
		p.Depth = 1
	}
	if p.RangeHi <= p.RangeLo {
		p.RangeLo, p.RangeHi = 0, size
	}
	if p.RangeLo < 0 {
		p.RangeLo = 0
	}
	if p.RangeHi > size {
		p.RangeHi = size
	}
	return p
}

// BuildCompound constructs a compound move on prob and leaves it applied
// (tentatively): callers keep it, or revert with move.Undo(prob).
//
// Each depth step samples p.Trials candidate swaps, applies the best
// one, and stops early once the cumulative delta improves the cost —
// exactly the paper's CLW behaviour. After every applied step the
// optional step callback runs; it exists for the parallel runtime to
// charge virtual compute time and poll force-report interrupts, and
// truncates the move when it returns true. Sampling is deterministic in
// r.
//
// This trial-at-a-time form is the reference implementation; the
// parallel runtime drives BuildCompoundBatch, which produces
// bit-identical moves from the same random stream (the equivalence is
// asserted by tests) while letting batch-capable problems evaluate all
// trials in one data-parallel call.
func BuildCompound(prob Problem, r *rand.Rand, p CompoundParams, step func() bool) CompoundMove {
	size := prob.Size()
	p = p.normalized(size)
	var move CompoundMove
	if size < 2 || p.RangeHi <= p.RangeLo {
		return move
	}
	for d := 0; d < p.Depth; d++ {
		bestA, bestB := int32(-1), int32(-1)
		bestDelta := 0.0
		found := false
		for t := 0; t < p.Trials; t++ {
			a := p.RangeLo + int32(r.Intn(int(p.RangeHi-p.RangeLo)))
			b := int32(r.Intn(int(size)))
			if a == b {
				continue
			}
			delta := prob.DeltaSwap(a, b)
			if !found || delta < bestDelta {
				bestA, bestB, bestDelta = a, b, delta
				found = true
			}
		}
		if !found {
			// All trials degenerated (a == b); spend the step and go on.
			if step != nil && step() {
				break
			}
			continue
		}
		prob.ApplySwap(bestA, bestB)
		if move.Swaps == nil {
			// One right-sized allocation per candidate: the move is sent
			// across workers, so it must own its memory.
			move.Swaps = make([]Swap, 0, p.Depth)
		}
		move.Swaps = append(move.Swaps, Swap{A: bestA, B: bestB})
		move.Delta += bestDelta
		interrupted := step != nil && step()
		if move.Delta < -eps {
			// Improving already: accept without further investigation.
			break
		}
		if interrupted {
			break
		}
	}
	return move
}

// Verdict reports the outcome of selecting among candidate moves.
type Verdict struct {
	// Index of the chosen candidate, or -1 if every candidate was empty.
	Index int
	// Aspired is true when the chosen move was tabu but beat the best
	// known cost (aspiration criterion).
	Aspired bool
	// Fallback is true when every candidate was tabu and unaspired and
	// the least-tabu one was taken so the search does not stall.
	Fallback bool
	// TabuRejected counts candidates skipped for being tabu.
	TabuRejected int
}

// SelectAdmissible implements the TSW's choice among the compound moves
// its candidate-list workers returned: scan candidates in order of
// ascending delta; take the first that is not tabu, or that is tabu but
// satisfies the aspiration criterion (its resulting cost beats bestCost).
// If everything is tabu, fall back to the candidate whose tabu tenure
// expires soonest.
//
// This per-candidate-probing form is the reference implementation; the
// TSW hot loop drives SelectAdmissibleBatch, which computes the same
// verdict with one tabu-memory pass over the whole batch (the
// equivalence is asserted by tests).
func SelectAdmissible(cands []CompoundMove, curCost, bestCost float64, list *List, iter int64) Verdict {
	// Stack-backed order buffer: candidate counts are tiny (#CLWs), so
	// the whole selection allocates nothing in the common case.
	var orderBuf [16]int
	order := orderBuf[:0]
	for i := range cands {
		if !cands[i].Empty() {
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		return Verdict{Index: -1}
	}
	// Insertion sort by delta.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && cands[order[j]].Delta < cands[order[j-1]].Delta; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	v := Verdict{Index: -1}
	for _, i := range order {
		if !list.AnyTabuSwaps(cands[i].Swaps, iter) {
			v.Index = i
			return v
		}
		if curCost+cands[i].Delta < bestCost-eps {
			v.Index = i
			v.Aspired = true
			return v
		}
		v.TabuRejected++
	}
	// Everything tabu and unaspired: least-tabu fallback.
	bestIdx, bestTenure := -1, int64(0)
	for _, i := range order {
		t := list.RemainingTenureSwaps(cands[i].Swaps, iter)
		if bestIdx == -1 || t < bestTenure ||
			(t == bestTenure && cands[i].Delta < cands[bestIdx].Delta) {
			bestIdx, bestTenure = i, t
		}
	}
	v.Index = bestIdx
	v.Fallback = true
	return v
}
