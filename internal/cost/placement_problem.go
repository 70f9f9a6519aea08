package cost

import (
	"fmt"
	"sync"

	"pts/internal/netlist"
	"pts/internal/placement"
	"pts/internal/rng"
	"pts/internal/tabu"
)

// PlacementProblem adapts VLSI standard-cell placement to the parallel
// engine's problem boundary (pts/internal/core.Problem): states are
// fuzzy-cost evaluators over a shared slot grid, snapshots are slot
// permutations.
//
// The fuzzy goals every state scores against are derived once per run,
// from the initial solution Initial produces; all states of the same
// run therefore report comparable costs, exactly as the paper's master
// hands every TSW the same frame of reference. A PlacementProblem value
// supports one run at a time: a second Initial rebases the goals.
//
// Each run also keeps a small cache of fully evaluated states, keyed by
// permutation (stateCache): NewState and Restore copy a state another
// worker of the run has already imported and timed, so each distinct
// permutation is evaluated once per run.
type PlacementProblem struct {
	nl  *netlist.Netlist
	cfg Config

	mu       sync.Mutex
	goals    Goals
	hasGoals bool

	cache stateCache
}

// utilization is the slot-grid fill ratio (cells per slot) of every
// placement problem.
const utilization = 0.9

// NewPlacementProblem builds the placement problem over circuit nl,
// laid out at the experiments' slot-grid utilization and scored with
// the experiments' cost configuration (DefaultConfig).
func NewPlacementProblem(nl *netlist.Netlist) *PlacementProblem {
	return &PlacementProblem{nl: nl, cfg: DefaultConfig()}
}

// Name returns the circuit name.
func (p *PlacementProblem) Name() string { return p.nl.Name }

// Netlist returns the underlying circuit.
func (p *PlacementProblem) Netlist() *netlist.Netlist { return p.nl }

// Size returns the number of cells.
func (p *PlacementProblem) Size() int32 { return int32(p.nl.NumCells()) }

// layout builds the slot grid every state of this problem uses; all
// states must agree on it for permutations to be interchangeable.
func (p *PlacementProblem) layout() *placement.Placement {
	pl, err := placement.New(p.nl, placement.AutoLayout(p.nl, utilization))
	if err != nil {
		// AutoLayout always allocates enough slots; a failure here is a
		// programming error, not an input error.
		panic(fmt.Sprintf("cost: layout: %v", err))
	}
	return pl
}

// Initial derives the run's shared initial solution from seed and
// rebases the fuzzy goals on it. It empties the state cache, whose
// states scored against the previous goals, and publishes the initial
// state, from which every worker spawns. The derivation labels match
// the original core implementation so historical results stay
// reproducible.
func (p *PlacementProblem) Initial(seed uint64) (tabu.Problem, error) {
	pl := p.layout()
	pl.Randomize(rng.New(rng.Derive(seed, "core.initial", p.nl.Name)))
	ev, err := NewEvaluator(pl, p.cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.goals = ev.GoalSet()
	p.hasGoals = true
	p.mu.Unlock()
	p.cache.reset()
	p.cache.publish(ev)
	return Problem{Ev: ev, cache: &p.cache}, nil
}

// goalSet returns the run goals set by Initial.
func (p *PlacementProblem) goalSet() (Goals, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.hasGoals {
		return Goals{}, fmt.Errorf("cost: placement problem used before Initial")
	}
	return p.goals, nil
}

// NewState builds an independent evaluator positioned at snap, scoring
// against the run goals derived by Initial. When the run's state cache
// holds snap, the evaluator is a copy of that state, bit for bit what
// importing and timing snap would build; otherwise it is built so and
// published.
func (p *PlacementProblem) NewState(snap []int32) (tabu.Problem, error) {
	goals, err := p.goalSet()
	if err != nil {
		return nil, err
	}
	if ev := p.cache.clone(snap); ev != nil {
		return Problem{Ev: ev, cache: &p.cache}, nil
	}
	pl := p.layout()
	if err := pl.Import(snap); err != nil {
		return nil, err
	}
	ev, err := NewEvaluatorWithGoals(pl, p.cfg.Timing, goals)
	if err != nil {
		return nil, err
	}
	p.cache.publish(ev)
	return Problem{Ev: ev, cache: &p.cache}, nil
}

// Placed rebuilds the slot grid with the permutation perm imported —
// the layout a result permutation denotes.
func (p *PlacementProblem) Placed(perm []int32) (*placement.Placement, error) {
	pl := p.layout()
	if err := pl.Import(perm); err != nil {
		return nil, err
	}
	return pl, nil
}

// Score rescores a permutation exactly (fresh full timing analysis)
// against the run goals, returning the objective values and the
// critical path delay.
func (p *PlacementProblem) Score(perm []int32) (Objectives, float64, error) {
	goals, err := p.goalSet()
	if err != nil {
		return Objectives{}, 0, err
	}
	pl, err := p.Placed(perm)
	if err != nil {
		return Objectives{}, 0, err
	}
	ev, err := NewEvaluatorWithGoals(pl, p.cfg.Timing, goals)
	if err != nil {
		return Objectives{}, 0, err
	}
	return ev.Objectives(), ev.CriticalPath(), nil
}
