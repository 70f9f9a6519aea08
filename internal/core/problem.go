package core

import "pts/internal/tabu"

// State is the mutable per-worker search state the tabu engine drives.
// It is an alias of the engine's own Problem contract so that any state
// the engine can search, the parallel algorithm can distribute.
type State = tabu.Problem

// Problem is the problem-agnostic boundary of the parallel tabu search:
// anything that can mint independent search states over a shared
// solution encoding (a snapshot of Size() distinct values) can be
// solved by RunProblem. VLSI placement
// (pts/internal/cost.PlacementProblem) and the quadratic assignment
// problem implement it; the engine itself never looks past this
// interface.
type Problem interface {
	// Name identifies the problem instance in results and progress
	// reports.
	Name() string
	// Size returns the number of swappable elements; snapshots hold
	// Size() distinct values in a problem-defined range (a permutation
	// of [0, Size()) for most problems, slot indices over a grid with
	// more slots than cells for placement), which NewState and Restore
	// validate.
	Size() int32
	// Initial derives the run's shared initial state deterministically
	// from seed. It is called exactly once per run, before any worker
	// spawns; implementations may derive run-scoped shared context
	// (e.g. fuzzy goals) here.
	Initial(seed uint64) (State, error)
	// NewState builds an independent worker state positioned at the
	// snapshot snap. It is called concurrently from worker goroutines in
	// Real mode and must be safe for concurrent use after Initial.
	NewState(snap []int32) (State, error)
}

// Finalizer is an optional Problem capability: exact, problem-specific
// scoring of the final best solution. When implemented, RunProblem
// stores the returned value in Result.Details.
type Finalizer interface {
	Finalize(best []int32) (any, error)
}

// Snapshot is one per-global-iteration progress observation, delivered
// to Config.Progress from the master as soon as a round's reports are
// collected.
type Snapshot struct {
	// Round is the 1-based index of the just-completed global iteration.
	Round int
	// Rounds is the total number of planned global iterations.
	Rounds int
	// BestCost is the global best cost after this round.
	BestCost float64
	// InitialCost is the cost of the shared initial solution.
	InitialCost float64
	// Elapsed is seconds since the run started (virtual or wall).
	Elapsed float64
	// Improved reports whether this round improved the global best.
	Improved bool
	// Reports is the number of TSW reports collected this round.
	Reports int
	// Forced is how many of those reports were forced by the half-sync
	// heterogeneity adaptation.
	Forced int
	// Stats aggregates the TSW-side counters reported so far (CLW
	// counters fold in only at shutdown and appear in Result.Stats).
	Stats WorkerStats
	// Shares is the adaptive scheduler's current element-space share per
	// TSW (summing to 1 over live workers); nil when adaptive
	// scheduling is off.
	Shares []float64
}

// refresh resynchronizes a state's cached models (e.g. the placement
// evaluator's timing criticalities) when the state supports it.
func refresh(st State) {
	if rf, ok := st.(tabu.Refresher); ok {
		rf.Refresh()
	}
}

// snapshotterInto is an optional State capability: write the snapshot
// into a caller-owned buffer instead of allocating a fresh slice.
type snapshotterInto interface {
	SnapshotInto(dst []int32) []int32
}

// snapshotInto captures st's solution, reusing dst when the state
// supports it; the TSW's incumbent tracking calls this on every
// improvement, so the hot path stays allocation-free for such states.
func snapshotInto(st State, dst []int32) []int32 {
	if si, ok := st.(snapshotterInto); ok {
		return si.SnapshotInto(dst)
	}
	return st.Snapshot()
}
