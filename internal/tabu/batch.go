package tabu

import "pts/internal/rng"

// Batched neighborhood evaluation: the CLW hot loop generates a whole
// candidate batch per depth step and hands it to the problem in one
// call, so problems with a data-parallel kernel (the placement
// evaluator, the QAP state) amortize per-trial call overhead, share
// cache lines across candidates, and keep their inner loops
// branch-light — the Bukata-style restructuring of the neighborhood
// walk. Problems without a batch kernel transparently fall back to
// per-candidate DeltaSwap, with identical results.

// SwapCand is one candidate swap of a data-parallel evaluation batch.
type SwapCand struct {
	A, B int32
}

// BatchEvaluator is the optional capability a Problem implements to
// evaluate whole candidate batches in one call.
//
// DeltaSwapBatch must write, for every i, out[i] = DeltaSwap(cands[i].A,
// cands[i].B) — bit-for-bit, not merely approximately: the batched
// search must reproduce the scalar search's trajectory exactly, which
// pins the floating-point accumulation order inside the kernel.
// Implementations may evaluate candidates in any internal order (e.g.
// sorted for cache locality) as long as each result lands at its
// candidate's own index. len(out) >= len(cands); the call must not
// retain either slice.
type BatchEvaluator interface {
	DeltaSwapBatch(cands []SwapCand, out []float64)
}

// EvalDeltaBatch evaluates a candidate batch through the problem's
// batch kernel when it implements BatchEvaluator, and falls back to
// per-candidate DeltaSwap otherwise. out must have at least len(cands)
// elements; out[i] receives candidate i's delta.
func EvalDeltaBatch(prob Problem, cands []SwapCand, out []float64) {
	if be, ok := prob.(BatchEvaluator); ok {
		be.DeltaSwapBatch(cands, out)
		return
	}
	for i, c := range cands {
		out[i] = prob.DeltaSwap(c.A, c.B)
	}
}

// BatchScratch holds one CLW's reusable candidate-batch storage; the
// zero value is ready to use and the buffers grow to the trial budget
// once.
type BatchScratch struct {
	cands  []SwapCand
	deltas []float64
}

// grow ensures capacity for n candidates.
func (sc *BatchScratch) grow(n int) {
	if cap(sc.cands) < n {
		sc.cands = make([]SwapCand, 0, n)
		sc.deltas = make([]float64, n)
	}
}

// Intner is the random stream BuildCompoundBatch samples trials from:
// a worker's *rng.SplitMix64, or any other source of Intn draws such as
// a *math/rand.Rand. From the same seed both yield the same trials,
// since SplitMix64.Intn returns math/rand's Intn value for value.
type Intner interface {
	Intn(n int) int
}

// BuildCompoundBatch is BuildCompound restructured around candidate
// batches: each depth step samples all Trials candidate pairs first,
// evaluates them in one EvalDeltaBatch call, and applies the argmin.
// The random stream consumption, the candidate order, and the
// strict-less first-wins argmin tie-breaking are identical to the
// scalar BuildCompound, so fixed-seed runs are bit-identical through
// either path. When r is a *rng.SplitMix64 the trials are drawn from
// it directly, through bounds computed once per call; any other
// Intner is drawn from through the interface. sc may be nil (a
// temporary scratch is allocated).
func BuildCompoundBatch(prob Problem, r Intner, p CompoundParams, sc *BatchScratch, step func() bool) CompoundMove {
	size := prob.Size()
	p = p.normalized(size)
	var move CompoundMove
	if size < 2 || p.RangeHi <= p.RangeLo {
		return move
	}
	if sc == nil {
		sc = &BatchScratch{}
	}
	sc.grow(p.Trials)
	s := trialSampler{r: r, lo: p.RangeLo, span: int(p.RangeHi - p.RangeLo), size: int(size)}
	if sm, ok := r.(*rng.SplitMix64); ok {
		s.sm, s.spanB, s.sizeB = sm, rng.NewBound(s.span), rng.NewBound(s.size)
	}
	for d := 0; d < p.Depth; d++ {
		cands := s.sample(sc.cands[:0], p.Trials)
		if len(cands) == 0 {
			// All trials degenerated (a == b); spend the step and go on.
			if step != nil && step() {
				break
			}
			continue
		}
		deltas := sc.deltas[:len(cands)]
		EvalDeltaBatch(prob, cands, deltas)
		// First-wins strict argmin over the generation order: the same
		// tie-breaking as the scalar loop's `delta < bestDelta`.
		best := 0
		for i := 1; i < len(deltas); i++ {
			if deltas[i] < deltas[best] {
				best = i
			}
		}
		prob.ApplySwap(cands[best].A, cands[best].B)
		if move.Swaps == nil {
			// One right-sized allocation per candidate: the move is sent
			// across workers, so it must own its memory.
			move.Swaps = make([]Swap, 0, p.Depth)
		}
		move.Swaps = append(move.Swaps, Swap{A: cands[best].A, B: cands[best].B})
		move.Delta += deltas[best]
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

// trialSampler draws a CLW step's trial pairs: the first element from
// the worker's range [lo, lo+span), the second from the whole element
// space [0, size). sm, when set, is r itself, drawn from through the
// hoisted bounds spanB and sizeB.
type trialSampler struct {
	r            Intner
	sm           *rng.SplitMix64
	spanB, sizeB rng.Bound
	lo           int32
	span, size   int
}

// sample appends trials candidate pairs to dst. It consumes the random
// stream exactly like the scalar BuildCompound loop: two draws per
// trial, degenerate a == b pairs dropped after both draws. The problem
// does not change between the draws and their evaluation, so deferring
// the evaluation preserves results.
func (s *trialSampler) sample(dst []SwapCand, trials int) []SwapCand {
	if sm := s.sm; sm != nil {
		for t := 0; t < trials; t++ {
			a := s.lo + int32(sm.IntnBound(&s.spanB))
			if b := int32(sm.IntnBound(&s.sizeB)); a != b {
				dst = append(dst, SwapCand{A: a, B: b})
			}
		}
		return dst
	}
	for t := 0; t < trials; t++ {
		a := s.lo + int32(s.r.Intn(s.span))
		if b := int32(s.r.Intn(s.size)); a != b {
			dst = append(dst, SwapCand{A: a, B: b})
		}
	}
	return dst
}

// SelectScratch holds one TSW's reusable selection buffers: candidate
// ordering plus the per-candidate tabu state the single-pass admissibility
// filter computes. The zero value is ready to use.
type SelectScratch struct {
	order  []int
	tabu   []bool
	tenure []int64
}

// grow ensures capacity for n candidates.
func (sc *SelectScratch) grow(n int) {
	if cap(sc.order) < n {
		sc.order = make([]int, 0, n)
		sc.tabu = make([]bool, n)
		sc.tenure = make([]int64, n)
	}
}

// SelectAdmissibleBatch is SelectAdmissible with the tabu probing
// amortized: one pass over the whole candidate batch computes every
// candidate's tabu flag and remaining tenure against the list (one
// ring walk per candidate instead of re-probing during selection and
// again in the fallback), then the selection scans by ascending delta
// as before. The verdict is identical to SelectAdmissible's. sc may be
// nil (a temporary scratch is allocated).
func SelectAdmissibleBatch(cands []CompoundMove, curCost, bestCost float64, list *List, iter int64, sc *SelectScratch) Verdict {
	if sc == nil {
		sc = &SelectScratch{}
	}
	n := len(cands)
	sc.grow(n)
	tabu, tenure := sc.tabu[:n], sc.tenure[:n]
	order := sc.order[:0]
	// The single batch pass over the tabu memory.
	for i := range cands {
		if cands[i].Empty() {
			continue
		}
		tabu[i], tenure[i] = list.TabuStateSwaps(cands[i].Swaps, iter)
		order = append(order, i)
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
		if !tabu[i] {
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
		t := tenure[i]
		if bestIdx == -1 || t < bestTenure ||
			(t == bestTenure && cands[i].Delta < cands[bestIdx].Delta) {
			bestIdx, bestTenure = i, t
		}
	}
	v.Index = bestIdx
	v.Fallback = true
	return v
}
