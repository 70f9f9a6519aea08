package tabu

import (
	"math/rand"

	"pts/internal/rng"
)

// Params configure a sequential tabu search.
type Params struct {
	// Tenure is how many iterations a used attribute stays tabu.
	Tenure int
	// Trials is m: candidate pairs examined per compound-move step.
	Trials int
	// Depth is d: the maximum number of swaps in a compound move.
	Depth int
	// RangeLo/RangeHi restrict the first element of every trial swap to
	// [RangeLo, RangeHi); zero values mean the whole problem.
	RangeLo, RangeHi int32
	// RefreshEvery triggers Problem refreshes (full timing analysis for
	// placement) every that many accepted moves; 0 disables.
	RefreshEvery int
	// Seed drives all sampling.
	Seed uint64
}

// Refresher is implemented by problems that can resynchronize cached
// models (the placement evaluator's timing criticalities).
type Refresher interface{ Refresh() }

// Stats counts search events.
type Stats struct {
	Steps        int64
	Accepted     int64
	TabuRejected int64
	Aspirations  int64
	EarlyAccepts int64
	Improvements int64
}

// Search is a self-contained sequential tabu search over a Problem —
// what one TSW with one candidate-list worker computes, and the n=1
// baseline of every speedup figure.
type Search struct {
	Prob  Problem
	P     Params
	List  *List
	Freq  *Frequency
	Stats Stats
	r     *rand.Rand
	iter  int64
	best  float64
	snap  []int32
	sc    BatchScratch // candidate-batch buffers reused across Steps
}

// NewSearch builds a search over prob; the current solution becomes the
// incumbent best.
func NewSearch(prob Problem, p Params) *Search {
	if p.Tenure < 1 {
		p.Tenure = 1
	}
	s := &Search{
		Prob: prob,
		P:    p,
		List: NewList(),
		Freq: NewFrequency(prob.Size()),
		r:    rng.New(rng.Derive(p.Seed, "tabu.search")),
		best: prob.Cost(),
		snap: prob.Snapshot(),
	}
	return s
}

// BestCost returns the incumbent best cost.
func (s *Search) BestCost() float64 { return s.best }

// BestSnapshot returns the incumbent best solution. The returned slice
// is owned by the search; callers must not modify it.
func (s *Search) BestSnapshot() []int32 { return s.snap }

// Iter returns the number of iterations performed.
func (s *Search) Iter() int64 { return s.iter }

// noteCost updates the incumbent if the current solution improves on it.
func (s *Search) noteCost() {
	if c := s.Prob.Cost(); c < s.best-eps {
		s.best = c
		s.snap = s.Prob.Snapshot()
		s.Stats.Improvements++
	}
}

// Step performs one tabu search iteration: build a compound move (the
// candidate list), test it against the short-term memory and the
// aspiration criterion, and accept or revert it.
func (s *Search) Step() {
	s.iter++
	s.Stats.Steps++
	cur := s.Prob.Cost()
	move := BuildCompoundBatch(s.Prob, s.r, CompoundParams{
		Trials:  s.P.Trials,
		Depth:   s.P.Depth,
		RangeLo: s.P.RangeLo,
		RangeHi: s.P.RangeHi,
	}, &s.sc, nil)
	if move.Empty() {
		return
	}
	if move.Delta < -eps && len(move.Swaps) < s.P.Depth {
		s.Stats.EarlyAccepts++
	}
	attrs := move.Attributes()
	if s.List.AnyTabu(attrs, s.iter) {
		if cur+move.Delta < s.best-eps {
			s.Stats.Aspirations++
		} else {
			move.Undo(s.Prob)
			s.Stats.TabuRejected++
			return
		}
	}
	s.accept(&move, attrs)
}

// accept commits an applied move: records memory, counters, incumbent,
// and periodic refreshes.
func (s *Search) accept(move *CompoundMove, attrs []Attribute) {
	for _, at := range attrs {
		s.List.Add(at, s.iter+int64(s.P.Tenure))
	}
	s.Freq.BumpMove(move)
	s.Stats.Accepted++
	s.noteCost()
	if s.P.RefreshEvery > 0 && s.Stats.Accepted%int64(s.P.RefreshEvery) == 0 {
		if rf, ok := s.Prob.(Refresher); ok {
			rf.Refresh()
			s.noteCost()
		}
	}
}

// Run performs n iterations.
func (s *Search) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Diversify applies the Kelly et al. frequency-based diversification
// within [lo, hi): depth forced swaps whose first element is the least
// frequently moved element of the range and whose second element is
// uniform over the whole space. The applied attributes are made tabu so
// the search does not immediately undo the jump. Costs are ignored —
// diversification deliberately accepts bad moves.
func (s *Search) Diversify(depth int, lo, hi int32) {
	size := s.Prob.Size()
	if hi <= lo {
		lo, hi = 0, size
	}
	if hi > size {
		hi = size
	}
	if lo < 0 {
		lo = 0
	}
	if hi-lo < 1 || size < 2 {
		return
	}
	for i := 0; i < depth; i++ {
		a := s.Freq.LeastMoved(s.r, lo, hi)
		b := int32(s.r.Intn(int(size)))
		if a == b {
			continue
		}
		s.Prob.ApplySwap(a, b)
		s.Freq.BumpSwap(a, b)
		s.List.Add(Attr(a, b), s.iter+int64(s.P.Tenure))
	}
	s.noteCost()
}

// AdoptSolution replaces the current solution (e.g. with the global best
// broadcast by the master) and, when better, the incumbent.
func (s *Search) AdoptSolution(snap []int32) error {
	if err := s.Prob.Restore(snap); err != nil {
		return err
	}
	if rf, ok := s.Prob.(Refresher); ok {
		rf.Refresh()
	}
	s.noteCost()
	return nil
}
