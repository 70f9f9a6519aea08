package jobshop

import (
	"pts/internal/rng"
	"pts/internal/schedinst"
	"pts/internal/tabu"
)

// Problem adapts a job shop instance to the parallel engine's problem
// boundary (pts/internal/core.Problem): states and snapshots are
// permutations of the jobs x machines operation tokens. The public
// pts.JobShopProblem forwards to it, so a run here and a `pts
// -jobshop` run at the same seed start from the same permutation.
type Problem struct{ ins *schedinst.JobShop }

// NewProblem builds the engine problem over instance ins.
func NewProblem(ins *schedinst.JobShop) *Problem { return &Problem{ins: ins} }

// Instance returns the underlying instance.
func (p *Problem) Instance() *schedinst.JobShop { return p.ins }

// Name identifies the instance.
func (p *Problem) Name() string { return "jobshop-" + p.ins.Name }

// Size returns the number of operation tokens (jobs x machines).
func (p *Problem) Size() int32 { return int32(p.ins.Jobs * p.ins.Machines) }

// Initial derives the run's shared initial token permutation from seed.
func (p *Problem) Initial(seed uint64) (tabu.Problem, error) {
	return NewState(p.ins, rng.Derive(seed, "pts.jobshop.initial")), nil
}

// NewState builds an independent state positioned at snap.
func (p *Problem) NewState(snap []int32) (tabu.Problem, error) {
	s, err := NewStateAt(p.ins, snap)
	if err != nil {
		return nil, err
	}
	return s, nil
}
