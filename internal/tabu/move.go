// Package tabu implements the tabu search building blocks the parallel
// algorithm's workers share: swap moves and compound moves, the
// short-term memory (tabu list) with aspiration, and the long-term
// frequency memory behind the Kelly-style diversification the paper
// cites. The search loop itself lives in the workers (internal/core).
//
// The engine is problem-agnostic: anything implementing Problem — the
// VLSI placement evaluator (internal/cost) or the QAP state
// (internal/qap) — can be searched. A move is a swap of two elements; a
// compound move is the paper's depth-d sequence of swaps where each step
// keeps the best of m trials and the sequence stops early as soon as the
// cumulative cost improves.
package tabu

import (
	"fmt"
	"slices"
)

// Problem is the mutable optimization state the engine searches. Element
// indices are 0..Size()-1 (cells for placement, facilities for QAP).
// Implementations are not required to be safe for concurrent use; each
// worker owns its copy.
type Problem interface {
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
	// Snapshot captures the current solution compactly.
	Snapshot() []int32
	// Restore replaces the current solution with a prior snapshot.
	Restore(snap []int32) error
}

// Refresher is implemented by problems that can resynchronize cached
// models (the placement evaluator's timing criticalities).
type Refresher interface{ Refresh() }

// Attribute is the move feature stored in the short-term memory: the
// unordered pair of elements that a swap exchanged.
type Attribute struct {
	A, B int32 // canonical: A < B
}

// Attr builds the canonical attribute of a swap of a and b.
func Attr(a, b int32) Attribute {
	if a > b {
		a, b = b, a
	}
	return Attribute{A: a, B: b}
}

// Swap is one elementary move.
type Swap struct {
	A, B int32
}

// Attribute returns the swap's canonical tabu attribute.
func (s Swap) Attribute() Attribute { return Attr(s.A, s.B) }

// String renders the swap.
func (s Swap) String() string { return fmt.Sprintf("(%d<->%d)", s.A, s.B) }

// CompoundMove is a depth-d sequence of swaps evaluated as one move, the
// unit of work a candidate-list worker produces.
type CompoundMove struct {
	Swaps []Swap
	// Delta is the total cost change of applying all swaps in order.
	Delta float64
}

// Empty reports whether the move contains no swaps.
func (m *CompoundMove) Empty() bool { return len(m.Swaps) == 0 }

// SameSwaps reports whether m and o hold the same swaps in the same
// order, so applying either one to a state gives the same result.
func (m *CompoundMove) SameSwaps(o *CompoundMove) bool { return slices.Equal(m.Swaps, o.Swaps) }

// Apply applies the move's swaps in order to prob.
func (m *CompoundMove) Apply(prob Problem) {
	for _, s := range m.Swaps {
		prob.ApplySwap(s.A, s.B)
	}
}

// Undo reverts the move by applying its swaps in reverse order (each
// swap is an involution).
func (m *CompoundMove) Undo(prob Problem) {
	for i := len(m.Swaps) - 1; i >= 0; i-- {
		prob.ApplySwap(m.Swaps[i].A, m.Swaps[i].B)
	}
}
