package pts

import (
	"fmt"
	"os"

	"pts/internal/flowshop"
	"pts/internal/schedinst"
)

// FlowShopProblem is the permutation flow shop scheduling problem —
// sequence n jobs through m machines in one shared order minimizing the
// makespan — as a built-in workload over the same engine the placement
// and QAP searches run on. Unlike those two, its swap deltas are not
// O(1): each candidate recomputes the critical-path section the swap
// disturbs (O(m · span) after one O(nm) cache rebuild per batch), which
// is exactly the non-constant-cost Evaluator shape the engine's batch
// boundary was designed to absorb.
type FlowShopProblem struct {
	p *flowshop.Problem
}

func newFlowShop(ins *schedinst.FlowShop) *FlowShopProblem {
	return &FlowShopProblem{p: flowshop.NewProblem(ins)}
}

// FlowShopBenchmark returns a named embedded benchmark instance
// (Taillard's ta001). FlowShopInstances lists the names.
func FlowShopBenchmark(name string) (*FlowShopProblem, error) {
	ins, err := schedinst.FlowShopByName(name)
	if err != nil {
		return nil, err
	}
	return newFlowShop(ins), nil
}

// FlowShopInstances lists the embedded flow shop benchmark names.
func FlowShopInstances() []string { return schedinst.FlowShopNames() }

// FlowShopFromFile parses a Taillard-format instance file.
func FlowShopFromFile(path string) (*FlowShopProblem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ins, err := schedinst.ParseTaillard(stemOf(path), f)
	if err != nil {
		return nil, err
	}
	return newFlowShop(ins), nil
}

// RandomFlowShop generates a random jobs × machines instance with
// durations in [1, 100), deterministic in seed.
func RandomFlowShop(jobs, machines int, seed uint64) *FlowShopProblem {
	return newFlowShop(flowshop.Random(jobs, machines, seed))
}

// NewFlowShop builds an instance from an explicit processing-time
// matrix: proc[i][j] is the time of job j on machine i.
func NewFlowShop(name string, proc [][]int) (*FlowShopProblem, error) {
	ins, err := flowshop.New(name, proc)
	if err != nil {
		return nil, err
	}
	return newFlowShop(ins), nil
}

// Name identifies the instance.
func (p *FlowShopProblem) Name() string { return p.p.Name() }

// Size returns the number of jobs (solutions are job sequences).
func (p *FlowShopProblem) Size() int32 { return p.p.Size() }

// Describe summarizes the instance dimensions and published bounds.
func (p *FlowShopProblem) Describe() string {
	ins := p.Instance()
	s := fmt.Sprintf("%d jobs x %d machines", ins.Jobs, ins.Machines)
	if ins.Upper > 0 {
		s += fmt.Sprintf(", published makespan bounds [%d, %d]", ins.Lower, ins.Upper)
	}
	return s
}

// Instance exposes the parsed instance data.
func (p *FlowShopProblem) Instance() *schedinst.FlowShop { return p.p.Instance() }

// Initial derives the run's shared initial sequence from seed.
func (p *FlowShopProblem) Initial(seed uint64) (State, error) { return p.p.Initial(seed) }

// NewState builds an independent sequence state positioned at snap.
func (p *FlowShopProblem) NewState(snap []int32) (State, error) { return p.p.NewState(snap) }

// Details recomputes the exact makespan of a solution from scratch and
// returns a FlowShopDetails.
func (p *FlowShopProblem) Details(best []int32) (any, error) {
	ins := p.Instance()
	ms, err := flowshop.Makespan(ins, best)
	if err != nil {
		return nil, err
	}
	return FlowShopDetails{
		Makespan:   ms,
		LowerBound: flowshop.LowerBound(ins),
		Optimum:    ins.Upper,
	}, nil
}

// Makespan evaluates a job sequence exactly with the from-scratch DP.
func (p *FlowShopProblem) Makespan(seq []int32) (int, error) {
	return flowshop.Makespan(p.Instance(), seq)
}

// BruteForceOptimum exhaustively finds the optimal makespan; limited to
// tiny instances (jobs <= 8), the test oracle.
func (p *FlowShopProblem) BruteForceOptimum() int { return flowshop.BruteForceOptimum(p.Instance()) }

// FlowShopDetails is the exact scoring of a flow shop solution.
type FlowShopDetails struct {
	// Makespan is the solution's makespan recomputed from scratch.
	Makespan int
	// LowerBound is the machine-load lower bound of the instance.
	LowerBound int
	// Optimum is the published optimal (or best-known upper-bound)
	// makespan, 0 when unknown.
	Optimum int
}

// stemOf strips the directory and extension from an instance file path,
// the conventional instance name.
func stemOf(path string) string {
	base := path
	for i := len(base) - 1; i >= 0; i-- {
		if base[i] == '/' || base[i] == os.PathSeparator {
			base = base[i+1:]
			break
		}
	}
	for i := len(base) - 1; i > 0; i-- {
		if base[i] == '.' {
			return base[:i]
		}
	}
	return base
}
