package pts

import (
	"fmt"
	"os"

	"pts/internal/jobshop"
	"pts/internal/schedinst"
)

// JobShopProblem is the job shop scheduling problem — each job visits
// the machines in its own order, minimize the makespan — as a built-in
// workload. Solutions use the operation-based permutation encoding: a
// permutation of n·m operation tokens where token t belongs to job
// t/m, decoded by semi-active dispatch in token order. Every
// permutation decodes to a feasible schedule, so the engine's swap
// moves, snapshots and element partitioning all apply unchanged.
// A delta re-decodes the schedule from a stored checkpoint just before
// the first swapped position and stops once it re-converges with the
// current schedule past the second (O(nm) in the worst case); swapping
// two tokens of the same job is recognized as cost-neutral without
// decoding.
type JobShopProblem struct {
	p *jobshop.Problem
}

func newJobShop(ins *schedinst.JobShop) *JobShopProblem {
	return &JobShopProblem{p: jobshop.NewProblem(ins)}
}

// JobShopBenchmark returns a named embedded OR-Library benchmark
// instance (ft06, ft10, la01). JobShopInstances lists the names.
func JobShopBenchmark(name string) (*JobShopProblem, error) {
	ins, err := schedinst.JobShopByName(name)
	if err != nil {
		return nil, err
	}
	return newJobShop(ins), nil
}

// JobShopInstances lists the embedded job shop benchmark names.
func JobShopInstances() []string { return schedinst.JobShopNames() }

// JobShopFromFile parses an OR-Library-format instance file.
func JobShopFromFile(path string) (*JobShopProblem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ins, err := schedinst.ParseORLib(stemOf(path), f)
	if err != nil {
		return nil, err
	}
	return newJobShop(ins), nil
}

// RandomJobShop generates a random jobs × machines instance where each
// job visits every machine once in a random order, deterministic in
// seed.
func RandomJobShop(jobs, machines int, seed uint64) *JobShopProblem {
	return newJobShop(jobshop.Random(jobs, machines, seed))
}

// NewJobShop builds an instance from explicit routing and duration
// matrices: machine[j][o] and dur[j][o] describe job j's o-th
// operation.
func NewJobShop(name string, machine, dur [][]int) (*JobShopProblem, error) {
	ins, err := jobshop.New(name, machine, dur)
	if err != nil {
		return nil, err
	}
	return newJobShop(ins), nil
}

// Name identifies the instance.
func (p *JobShopProblem) Name() string { return p.p.Name() }

// Size returns the number of operation tokens (jobs × machines).
func (p *JobShopProblem) Size() int32 { return p.p.Size() }

// Describe summarizes the instance dimensions and published optimum.
func (p *JobShopProblem) Describe() string {
	ins := p.Instance()
	s := fmt.Sprintf("%d jobs x %d machines (%d operations)",
		ins.Jobs, ins.Machines, ins.Jobs*ins.Machines)
	if ins.Optimum > 0 {
		s += fmt.Sprintf(", published optimum %d", ins.Optimum)
	}
	return s
}

// Instance exposes the parsed instance data.
func (p *JobShopProblem) Instance() *schedinst.JobShop { return p.p.Instance() }

// Initial derives the run's shared initial token permutation from seed.
func (p *JobShopProblem) Initial(seed uint64) (State, error) { return p.p.Initial(seed) }

// NewState builds an independent state positioned at snap.
func (p *JobShopProblem) NewState(snap []int32) (State, error) { return p.p.NewState(snap) }

// Details re-decodes a solution from scratch and returns a
// JobShopDetails.
func (p *JobShopProblem) Details(best []int32) (any, error) {
	ins := p.Instance()
	ms, err := p.Makespan(best)
	if err != nil {
		return nil, err
	}
	return JobShopDetails{
		Makespan:   ms,
		LowerBound: jobshop.LowerBound(ins),
		Optimum:    ins.Optimum,
	}, nil
}

// Makespan decodes a token permutation exactly with the from-scratch
// semi-active dispatcher.
func (p *JobShopProblem) Makespan(perm []int32) (int, error) {
	s, err := jobshop.NewStateAt(p.Instance(), perm)
	if err != nil {
		return 0, err
	}
	return s.Makespan(), nil
}

// BruteForceOptimum exhaustively finds the optimal makespan; limited to
// tiny instances (jobs × machines <= 12), the test oracle.
func (p *JobShopProblem) BruteForceOptimum() int { return jobshop.BruteForceOptimum(p.Instance()) }

// JobShopDetails is the exact scoring of a job shop solution.
type JobShopDetails struct {
	// Makespan is the solution's makespan re-decoded from scratch.
	Makespan int
	// LowerBound is the machine/job-load lower bound of the instance.
	LowerBound int
	// Optimum is the published optimal makespan, 0 when unknown.
	Optimum int
}
