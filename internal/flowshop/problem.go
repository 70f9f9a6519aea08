package flowshop

import (
	"pts/internal/rng"
	"pts/internal/schedinst"
	"pts/internal/tabu"
)

// Problem adapts a flow shop instance to the parallel engine's problem
// boundary (pts/internal/core.Problem): states are job sequences,
// snapshots are permutations of the jobs. The public
// pts.FlowShopProblem forwards to it, so a run here and a `pts
// -flowshop` run at the same seed start from the same sequence.
type Problem struct{ ins *schedinst.FlowShop }

// NewProblem builds the engine problem over instance ins.
func NewProblem(ins *schedinst.FlowShop) *Problem { return &Problem{ins: ins} }

// Instance returns the underlying instance.
func (p *Problem) Instance() *schedinst.FlowShop { return p.ins }

// Name identifies the instance.
func (p *Problem) Name() string { return "flowshop-" + p.ins.Name }

// Size returns the number of jobs.
func (p *Problem) Size() int32 { return int32(p.ins.Jobs) }

// Initial derives the run's shared initial sequence from seed.
func (p *Problem) Initial(seed uint64) (tabu.Problem, error) {
	return NewState(p.ins, rng.Derive(seed, "pts.flowshop.initial")), nil
}

// NewState builds an independent state positioned at snap.
func (p *Problem) NewState(snap []int32) (tabu.Problem, error) {
	s, err := NewStateAt(p.ins, snap)
	if err != nil {
		return nil, err
	}
	return s, nil
}
