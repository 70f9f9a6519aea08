package cost

import (
	"pts/internal/netlist"
	"pts/internal/tabu"
)

// Problem adapts an Evaluator to the element-index interface of the tabu
// engine (pts/internal/tabu.Problem): elements are cells, a solution
// snapshot is the slot permutation.
type Problem struct {
	Ev *Evaluator

	// cache is the run's state cache when the state came from a
	// PlacementProblem; nil otherwise.
	cache *stateCache
}

// Cost returns the current fuzzy cost.
func (p Problem) Cost() float64 { return p.Ev.Cost() }

// Size returns the number of cells.
func (p Problem) Size() int32 { return p.Ev.NumCells() }

// DeltaSwap returns the cost change of swapping cells a and b.
func (p Problem) DeltaSwap(a, b int32) float64 {
	return p.Ev.SwapDelta(netlist.CellID(a), netlist.CellID(b))
}

// DeltaSwapBatch evaluates a whole candidate batch in one data-parallel
// pass; out[i] is bit-for-bit what DeltaSwap(cands[i].A, cands[i].B)
// would return. Implements tabu.BatchEvaluator.
func (p Problem) DeltaSwapBatch(cands []tabu.SwapCand, out []float64) {
	p.Ev.DeltaSwapBatch(cands, out)
}

// ApplySwap swaps cells a and b.
func (p Problem) ApplySwap(a, b int32) {
	p.Ev.ApplySwap(netlist.CellID(a), netlist.CellID(b))
}

// Snapshot captures the solution as a slot permutation. A state that
// Refresh left fully evaluated, with no swap since, is first published
// to its run's state cache: the engine snapshots a state to push it to
// other workers, as a TSW pushes its diversified state to its CLWs at
// the barrier, and their restores of it then copy it.
func (p Problem) Snapshot() []int32 {
	if p.Ev.publishPending {
		p.Ev.publishPending = false
		p.cache.publish(p.Ev)
	}
	return p.Ev.ExportPerm()
}

// SnapshotInto captures the solution into dst, reusing its storage when
// large enough; the allocation-free variant the parallel engine prefers.
func (p Problem) SnapshotInto(dst []int32) []int32 { return p.Ev.ExportPermInto(dst) }

// Restore replaces the solution with a prior snapshot and refreshes the
// timing model. A state minted by a PlacementProblem first looks the
// snapshot up in its run's state cache: on a hit it copies the state
// another worker already evaluated, bit for bit what importing and
// timing the snapshot would build; on a miss it imports and times the
// snapshot and publishes the result.
func (p Problem) Restore(snap []int32) error {
	if p.cache.copyTo(p.Ev, snap) {
		return nil
	}
	if err := p.Ev.ImportPerm(snap); err != nil {
		return err
	}
	p.cache.publish(p.Ev)
	return nil
}

// Refresh reruns timing analysis; the tabu engine calls it periodically.
// A state minted by a PlacementProblem is then published to its run's
// state cache by its next Snapshot, unless a swap comes first. So only
// a refresh whose state is pushed to other workers, such as a TSW's
// CLWs restoring it at the barrier, pays for the publish; the search
// moves on from the refreshes it makes every few accepted moves, and
// other workers almost never restore those.
func (p Problem) Refresh() {
	p.Ev.Refresh()
	p.Ev.publishPending = p.cache != nil
}

// Clone returns a Problem over an independent copy of the evaluator,
// sharing the run's state cache.
func (p Problem) Clone() Problem { return Problem{Ev: p.Ev.Clone(), cache: p.cache} }
