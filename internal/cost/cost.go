// Package cost combines the three placement objectives — wirelength,
// timing, area — into the single fuzzy goal-directed cost the tabu search
// minimizes, with exact incremental evaluation of trial swaps.
//
// Objective values:
//
//   - Wirelength: total half-perimeter wirelength (placement.HPWL).
//   - Delay: the criticality-weighted interconnect delay surrogate
//     (timing.WeightedWireDelay). Gate delays are placement-independent
//     under cell swaps, so the surrogate captures exactly the part of the
//     critical path the search can change; criticalities are refreshed by
//     full STA at synchronization points (Refresh).
//   - Area: the width of the widest row (placement.MaxRowWidth).
//
// Goals and ceilings are derived from the initial solution: goal_i =
// GoalFrac_i × initial_i and ceiling_i = CeilingFrac_i × initial_i, per
// the fuzzy goal-directed search formulation the paper cites.
// Cost = 1 − OWA_β(μ_wl, μ_delay, μ_area) ∈ [0,1]; lower is better.
package cost

import (
	"fmt"

	"pts/internal/fuzzy"
	"pts/internal/netlist"
	"pts/internal/placement"
	"pts/internal/timing"
)

// Objectives holds one value per placement objective.
type Objectives struct {
	Wirelength float64
	Delay      float64
	Area       float64
}

// Config parameterizes the evaluator.
type Config struct {
	// GoalFrac scales the initial objective values into goals (μ = 1).
	GoalFrac Objectives
	// CeilingFrac scales the initial objective values into ceilings (μ = 0).
	CeilingFrac Objectives
	// Beta is the OWA and-likeness in [0,1].
	Beta float64
	// Timing configures the delay model.
	Timing timing.Config
}

// DefaultConfig returns the goal fractions used throughout the
// experiments: ambitious wirelength and delay goals, a modest area goal
// (swaps move little area), and a mostly-conjunctive OWA.
func DefaultConfig() Config {
	return Config{
		GoalFrac:    Objectives{Wirelength: 0.5, Delay: 0.6, Area: 0.85},
		CeilingFrac: Objectives{Wirelength: 1.2, Delay: 1.2, Area: 1.15},
		Beta:        0.65,
		Timing:      timing.DefaultConfig(),
	}
}

// Goals is the fuzzy goal set of a run. Every worker of a parallel
// search must score with the same goals or their costs are not
// comparable; the master derives Goals once from the initial solution
// and workers build evaluators with NewEvaluatorWithGoals.
type Goals struct {
	Wirelength fuzzy.Membership
	Delay      fuzzy.Membership
	Area       fuzzy.Membership
	Beta       float64
}

// Validate reports malformed goal sets.
func (g Goals) Validate() error {
	if err := g.Wirelength.Valid(); err != nil {
		return err
	}
	if err := g.Delay.Valid(); err != nil {
		return err
	}
	if err := g.Area.Valid(); err != nil {
		return err
	}
	return (fuzzy.OWA{Beta: g.Beta}).Valid()
}

// Evaluator maintains the fuzzy cost of one placement and evaluates
// swaps incrementally. Not safe for concurrent use; parallel workers
// clone it.
type Evaluator struct {
	p   *placement.Placement
	t   *timing.Analyzer
	owa fuzzy.OWA

	memWL, memDelay, memArea fuzzy.Membership

	cur  Objectives
	cost float64

	// batch holds reusable buffers for DeltaSwapBatch; like the rest of
	// the evaluator it is per-worker state (clones start with fresh,
	// empty scratch).
	batch batchScratch

	// publishPending is set by Problem.Refresh on a state with a run's
	// state cache and cleared by ApplySwap and by publishing: while set,
	// the evaluator holds exactly what importing its permutation builds,
	// and the next Problem.Snapshot publishes it.
	publishPending bool
}

// NewEvaluator builds an evaluator over p, deriving goals and ceilings
// from p's current (initial) objective values. It runs one full timing
// analysis to seed net criticalities.
func NewEvaluator(p *placement.Placement, cfg Config) (*Evaluator, error) {
	if cfg.Beta < 0 || cfg.Beta > 1 {
		return nil, fmt.Errorf("cost: beta %v outside [0,1]", cfg.Beta)
	}
	e := &Evaluator{
		p:   p,
		t:   timing.New(p.Netlist(), cfg.Timing),
		owa: fuzzy.OWA{Beta: cfg.Beta},
	}
	e.t.Analyze(p)
	init := Objectives{
		Wirelength: p.HPWL(),
		Delay:      e.t.WeightedWireDelay(p),
		Area:       float64(p.MaxRowWidth()),
	}
	mk := func(v, gf, cf float64) (fuzzy.Membership, error) {
		// Degenerate objectives (e.g. zero wirelength on a one-net
		// circuit) get a unit-width band so membership stays defined.
		if v <= 0 {
			v = 1
		}
		m := fuzzy.Membership{Goal: gf * v, Ceiling: cf * v}
		return m, m.Valid()
	}
	var err error
	if e.memWL, err = mk(init.Wirelength, cfg.GoalFrac.Wirelength, cfg.CeilingFrac.Wirelength); err != nil {
		return nil, err
	}
	if e.memDelay, err = mk(init.Delay, cfg.GoalFrac.Delay, cfg.CeilingFrac.Delay); err != nil {
		return nil, err
	}
	if e.memArea, err = mk(init.Area, cfg.GoalFrac.Area, cfg.CeilingFrac.Area); err != nil {
		return nil, err
	}
	e.cur = init
	e.cost = e.CostOf(init)
	return e, nil
}

// GoalSet returns the evaluator's goals for sharing with other workers.
func (e *Evaluator) GoalSet() Goals {
	return Goals{
		Wirelength: e.memWL,
		Delay:      e.memDelay,
		Area:       e.memArea,
		Beta:       e.owa.Beta,
	}
}

// NewEvaluatorWithGoals builds an evaluator over p scoring against an
// externally supplied goal set (instead of deriving goals from p's
// current state). It runs one full timing analysis to seed net
// criticalities.
func NewEvaluatorWithGoals(p *placement.Placement, tcfg timing.Config, g Goals) (*Evaluator, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{
		p:        p,
		t:        timing.New(p.Netlist(), tcfg),
		owa:      fuzzy.OWA{Beta: g.Beta},
		memWL:    g.Wirelength,
		memDelay: g.Delay,
		memArea:  g.Area,
	}
	e.Refresh()
	return e, nil
}

// Placement returns the underlying placement.
func (e *Evaluator) Placement() *placement.Placement { return e.p }

// Timing returns the underlying analyzer (for exact CPD reporting).
func (e *Evaluator) Timing() *timing.Analyzer { return e.t }

// Objectives returns the maintained objective values.
func (e *Evaluator) Objectives() Objectives { return e.cur }

// Cost returns the maintained fuzzy cost in [0,1]; lower is better.
func (e *Evaluator) Cost() float64 { return e.cost }

// CostOf evaluates the fuzzy cost of an arbitrary objective vector using
// this evaluator's goals.
func (e *Evaluator) CostOf(o Objectives) float64 {
	mu := e.owa.Combine(
		e.memWL.Eval(o.Wirelength),
		e.memDelay.Eval(o.Delay),
		e.memArea.Eval(o.Area),
	)
	return 1 - mu
}

// swapObjectives computes the objective vector that would result from
// swapping cells a and b, in one allocation-free pass over the affected
// nets: the placement folds the plain and criticality-weighted HPWL
// deltas together, and the area objective reads the top-two row cache.
func (e *Evaluator) swapObjectives(a, b netlist.CellID) Objectives {
	dWL, dCrit := e.p.SwapDeltaWeighted(a, b, e.t.Criticalities())
	return Objectives{
		Wirelength: e.cur.Wirelength + dWL,
		Delay:      e.cur.Delay + e.t.Config().WireDelayPerUnit*dCrit,
		Area:       float64(e.p.MaxRowWidthAfterSwap(a, b)),
	}
}

// SwapDelta returns the cost change if cells a and b exchanged
// positions, without modifying anything.
func (e *Evaluator) SwapDelta(a, b netlist.CellID) float64 {
	if a == b {
		return 0
	}
	return e.CostOf(e.swapObjectives(a, b)) - e.cost
}

// ApplySwap commits the swap of cells a and b and updates the maintained
// objectives and cost incrementally. Swaps are involutions: applying the
// same pair again restores the previous solution (and, bar float
// round-off that Refresh clears, the previous cost). The commit walks
// the affected nets once: SwapCellsWeighted returns the same deltas
// swapObjectives would have, so the maintained objectives are exactly
// the ones SwapDelta scored.
func (e *Evaluator) ApplySwap(a, b netlist.CellID) {
	if a == b {
		return
	}
	e.publishPending = false
	area := e.p.MaxRowWidthAfterSwap(a, b)
	dWL, dCrit := e.p.SwapCellsWeighted(a, b, e.t.Criticalities())
	e.cur = Objectives{
		Wirelength: e.cur.Wirelength + dWL,
		Delay:      e.cur.Delay + e.t.Config().WireDelayPerUnit*dCrit,
		Area:       float64(area),
	}
	e.cost = e.CostOf(e.cur)
}

// Refresh reruns full timing analysis (updating net criticalities) and
// recomputes the objectives and cost from scratch, clearing any
// incremental drift. Call at search synchronization points; the cost may
// step slightly as criticalities move. Afterwards the evaluator holds
// exactly what ImportPerm of its permutation would build, which is what
// lets a run's state cache hand a refreshed state to other workers.
func (e *Evaluator) Refresh() {
	e.p.Canonicalize()
	e.t.Analyze(e.p)
	e.cur = Objectives{
		Wirelength: e.p.HPWL(),
		Delay:      e.t.WeightedWireDelay(e.p),
		Area:       float64(e.p.MaxRowWidth()),
	}
	e.cost = e.CostOf(e.cur)
}

// CriticalPath returns the exact critical path delay from the last
// Refresh (or construction).
func (e *Evaluator) CriticalPath() float64 { return e.t.CriticalPath() }

// ExportPerm returns the current solution as a slot permutation.
func (e *Evaluator) ExportPerm() []int32 { return e.p.Export() }

// ExportPermInto writes the current solution into dst (reusing its
// storage when large enough) and returns it.
func (e *Evaluator) ExportPermInto(dst []int32) []int32 { return e.p.ExportInto(dst) }

// ImportPerm replaces the current solution and refreshes everything.
func (e *Evaluator) ImportPerm(perm []int32) error {
	if err := e.p.Import(perm); err != nil {
		return err
	}
	e.Refresh()
	return nil
}

// Clone returns an independent evaluator over a cloned placement with
// identical goals, timing analysis and maintained values. The clone
// shares only what never changes: the netlist, the cell widths and the
// gate-delay table.
func (e *Evaluator) Clone() *Evaluator {
	return &Evaluator{
		p:        e.p.Clone(),
		t:        e.t.Clone(),
		owa:      e.owa,
		memWL:    e.memWL,
		memDelay: e.memDelay,
		memArea:  e.memArea,
		cur:      e.cur,
		cost:     e.cost,
	}
}

// copyFrom overwrites e's solution, timing analysis, goals and
// maintained values with src's, reusing e's storage; e then scores
// exactly as a Clone of src would. Both must evaluate the same circuit
// on the same layout.
func (e *Evaluator) copyFrom(src *Evaluator) {
	e.p.CopyFrom(src.p)
	e.t.CopyFrom(src.t)
	e.owa = src.owa
	e.memWL, e.memDelay, e.memArea = src.memWL, src.memDelay, src.memArea
	e.cur, e.cost = src.cur, src.cost
}

// NumCells returns the number of movable cells, the move-space dimension
// the tabu engine partitions among workers.
func (e *Evaluator) NumCells() int32 { return int32(e.p.Netlist().NumCells()) }
