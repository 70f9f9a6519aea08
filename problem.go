package pts

import "pts/internal/core"

// State is the mutable search state one worker drives: a solution over
// elements 0..Size()-1 whose neighborhood is pairwise swaps, encoded
// compactly as a snapshot of Size() distinct int32 values.
// Implementations need not be safe for concurrent use — every worker
// owns its own State.
//
// A State may additionally implement `Refresh()` to resynchronize
// cached models (the placement evaluator re-runs timing analysis
// there); the engine calls it at synchronization points when present.
type State interface {
	// Cost returns the current solution cost; lower is better.
	Cost() float64
	// Size returns the number of swappable elements.
	Size() int32
	// DeltaSwap returns the cost change of swapping elements a and b
	// without applying it.
	DeltaSwap(a, b int32) float64
	// ApplySwap swaps elements a and b and updates the cost. A swap is
	// its own inverse.
	ApplySwap(a, b int32)
	// Snapshot captures the current solution as Size() distinct values
	// whose range is problem-defined: a permutation of [0, Size()) for
	// QAP and the scheduling workloads, slot indices over a grid with
	// more slots than cells for placement.
	Snapshot() []int32
	// Restore replaces the current solution with a prior snapshot,
	// leaving the state fully consistent (cached costs recomputed).
	Restore(snap []int32) error
}

// Problem is the pluggable workload boundary of the solver: anything
// that can mint independent search States over a shared permutation
// encoding can be solved by Solve. The built-in implementations are
// VLSI standard-cell placement (PlacementProblem) and the quadratic
// assignment problem (QAPProblem); external problems implement exactly
// this interface.
type Problem interface {
	// Name identifies the problem instance in results and progress
	// snapshots.
	Name() string
	// Size returns the number of swappable elements; snapshots hold
	// Size() distinct values in a problem-defined range (see
	// State.Snapshot), which NewState and Restore validate.
	Size() int32
	// Initial derives the run's shared initial State deterministically
	// from seed. It is called exactly once per run, before any worker
	// starts; implementations may derive run-scoped shared context
	// (e.g. the placement fuzzy goals) here.
	Initial(seed uint64) (State, error)
	// NewState builds an independent worker State positioned at the
	// snapshot snap. After Initial has returned it may be called
	// concurrently from worker goroutines and must be safe for that.
	NewState(snap []int32) (State, error)
}

// Detailer is an optional Problem capability: exact, problem-specific
// scoring of the final best solution. When the solved Problem
// implements it, Solve stores the returned value in Result.Details
// (PlacementProblem yields PlacementDetails, QAPProblem QAPDetails).
type Detailer interface {
	Details(best []int32) (any, error)
}

// coreProblem adapts the public Problem to the engine's internal
// boundary. State values cross the two structurally identical
// interfaces unchanged, so the adapter costs one pointer hop.
type coreProblem struct{ p Problem }

func (a coreProblem) Name() string { return a.p.Name() }
func (a coreProblem) Size() int32  { return a.p.Size() }
func (a coreProblem) Initial(seed uint64) (core.State, error) {
	return a.p.Initial(seed)
}
func (a coreProblem) NewState(snap []int32) (core.State, error) {
	return a.p.NewState(snap)
}

// coreProblemDetailed additionally forwards the Detailer capability as
// the engine's Finalizer, so Details land in the result.
type coreProblemDetailed struct {
	coreProblem
	d Detailer
}

func (a coreProblemDetailed) Finalize(best []int32) (any, error) {
	return a.d.Details(best)
}

// adapt wraps a public Problem for the engine, preserving the optional
// Detailer capability.
func adapt(p Problem) core.Problem {
	cp := coreProblem{p: p}
	if d, ok := p.(Detailer); ok {
		return coreProblemDetailed{coreProblem: cp, d: d}
	}
	return cp
}
