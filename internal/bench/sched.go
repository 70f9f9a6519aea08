package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/flowshop"
	"pts/internal/jobshop"
	"pts/internal/rng"
	"pts/internal/schedinst"
	"pts/internal/tabu"
)

// Scheduling-workload benchmark: runs the engine over every embedded
// flow shop and job shop instance at a fixed virtual-time budget and
// measures the delta-evaluation kernels' throughput. Unlike the
// placement and QAP workloads these problems have non-O(1) swap deltas
// — the flow shop recomputes a critical-path section per candidate, the
// job shop re-decodes from a checkpoint until the schedule re-converges
// — so the absolute deltas/sec figures quantify how much heavier these
// evaluators are, and the batch-vs-scalar ratio documents that the
// BatchEvaluator path adds no overhead even where it cannot add speed
// (both paths amortize the same lazily rebuilt caches; the batch
// contract here buys bit-identical pluggability, not extra throughput).

// SchedOpts configures the -sched scenario.
type SchedOpts struct {
	// Context bounds the runs (nil = background).
	Context context.Context
	// GlobalIters and LocalIters set the search budget per instance
	// (defaults 10 and 60).
	GlobalIters, LocalIters int
	// Scale multiplies the local iteration budget (ptsbench -scale);
	// <= 0 means 1.0.
	Scale float64
	// Seed fixes the run seed (default 1).
	Seed uint64
	// MeasureDur is the sampling window per throughput kernel
	// (default 300ms).
	MeasureDur time.Duration
}

func (o SchedOpts) withDefaults() SchedOpts {
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.GlobalIters <= 0 {
		o.GlobalIters = 10
	}
	if o.LocalIters <= 0 {
		o.LocalIters = 60
	}
	if o.Scale > 0 && o.Scale != 1 {
		o.LocalIters = int(float64(o.LocalIters)*o.Scale + 0.5)
		if o.LocalIters < 1 {
			o.LocalIters = 1
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MeasureDur <= 0 {
		o.MeasureDur = 300 * time.Millisecond
	}
	return o
}

// SchedInstance is one instance's search outcome plus kernel
// throughput.
type SchedInstance struct {
	Instance string `json:"instance"`
	Family   string `json:"family"` // "flowshop" or "jobshop"
	Jobs     int    `json:"jobs"`
	Machines int    `json:"machines"`

	InitialMakespan int `json:"initial_makespan"`
	BestMakespan    int `json:"best_makespan"`
	// Optimum is the published optimal makespan (flow shop: the Taillard
	// header's proven upper bound), 0 when unknown.
	Optimum int `json:"optimum,omitempty"`
	// LowerBound is the instance's load-based lower bound.
	LowerBound int `json:"lower_bound"`
	// GapPercent is (best - optimum) / optimum in percent, when the
	// optimum is known.
	GapPercent float64 `json:"gap_percent"`
	// ModeledSeconds is the virtual-clock makespan of the search run.
	ModeledSeconds float64 `json:"modeled_seconds"`

	// Deltas/second through the scalar DeltaSwap loop and the batched
	// DeltaSwapBatch kernel, and their ratio.
	ScalarDeltasPerSec float64 `json:"scalar_deltas_per_sec"`
	BatchDeltasPerSec  float64 `json:"batch_deltas_per_sec"`
	BatchSpeedup       float64 `json:"batch_speedup"`
}

// SchedReport is the BENCH_sched.json schema.
type SchedReport struct {
	Note        string `json:"note"`
	GoVersion   string `json:"go_version"`
	GeneratedAt string `json:"generated_at"`

	GlobalIters int    `json:"global_iters"`
	LocalIters  int    `json:"local_iters"`
	Seed        uint64 `json:"seed"`

	Instances []SchedInstance `json:"instances"`
}

// schedState is the common surface of the two workloads' states the
// throughput sampler drives.
type schedState interface {
	core.State
	DeltaSwapBatch(cands []tabu.SwapCand, out []float64)
}

// fsProblem adapts a flow shop instance to core.Problem. The initial
// derivation label matches the public facade's, so makespans here
// correspond one-to-one to `pts -flowshop` runs at the same seed.
type fsProblem struct{ ins *schedinst.FlowShop }

func (p fsProblem) Name() string { return "flowshop-" + p.ins.Name }
func (p fsProblem) Size() int32  { return int32(p.ins.Jobs) }
func (p fsProblem) Initial(seed uint64) (core.State, error) {
	return flowshop.NewState(p.ins, rng.Derive(seed, "pts.flowshop.initial")), nil
}
func (p fsProblem) NewState(snap []int32) (core.State, error) {
	return flowshop.NewStateAt(p.ins, snap)
}

// jsProblem adapts a job shop instance to core.Problem.
type jsProblem struct{ ins *schedinst.JobShop }

func (p jsProblem) Name() string { return "jobshop-" + p.ins.Name }
func (p jsProblem) Size() int32  { return int32(p.ins.Jobs * p.ins.Machines) }
func (p jsProblem) Initial(seed uint64) (core.State, error) {
	return jobshop.NewState(p.ins, rng.Derive(seed, "pts.jobshop.initial")), nil
}
func (p jsProblem) NewState(snap []int32) (core.State, error) {
	return jobshop.NewStateAt(p.ins, snap)
}

// measureSchedKernels samples the scalar and batched delta kernels on a
// warm state for dur each and returns deltas/second.
func measureSchedKernels(st schedState, dur time.Duration) (scalar, batch float64) {
	const batchLen = 64
	size := int(st.Size())
	r := rng.New(99)
	cands := make([]tabu.SwapCand, batchLen)
	for i := range cands {
		cands[i] = tabu.SwapCand{A: int32(r.Intn(size)), B: int32(r.Intn(size))}
	}
	out := make([]float64, batchLen)
	st.DeltaSwapBatch(cands, out) // warm caches

	deadline := time.Now().Add(dur)
	var n int64
	start := time.Now()
	for time.Now().Before(deadline) {
		for i := range cands {
			out[i] = st.DeltaSwap(cands[i].A, cands[i].B)
		}
		n += batchLen
	}
	scalar = float64(n) / time.Since(start).Seconds()

	deadline = time.Now().Add(dur)
	n = 0
	start = time.Now()
	for time.Now().Before(deadline) {
		st.DeltaSwapBatch(cands, out)
		n += batchLen
	}
	batch = float64(n) / time.Since(start).Seconds()
	return scalar, batch
}

// Sched runs the scheduling-workload benchmark and returns the report.
func Sched(o SchedOpts) (*SchedReport, error) {
	o = o.withDefaults()
	rep := &SchedReport{
		Note:        "scheduling workloads: engine search quality and delta-kernel throughput per embedded instance; regenerate with: ptsbench -sched",
		GoVersion:   runtime.Version(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GlobalIters: o.GlobalIters,
		LocalIters:  o.LocalIters,
		Seed:        o.Seed,
	}

	type entry struct {
		prob           core.Problem
		family         string
		jobs, machines int
		optimum, lower int
	}
	var entries []entry
	for _, name := range schedinst.FlowShopNames() {
		ins, err := schedinst.FlowShopByName(name)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{
			prob: fsProblem{ins: ins}, family: "flowshop",
			jobs: ins.Jobs, machines: ins.Machines,
			optimum: ins.Upper, lower: flowshop.LowerBound(ins),
		})
	}
	for _, name := range schedinst.JobShopNames() {
		ins, err := schedinst.JobShopByName(name)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{
			prob: jsProblem{ins: ins}, family: "jobshop",
			jobs: ins.Jobs, machines: ins.Machines,
			optimum: ins.Optimum, lower: jobshop.LowerBound(ins),
		})
	}

	cfg := core.DefaultConfig()
	cfg.GlobalIters, cfg.LocalIters = o.GlobalIters, o.LocalIters
	cfg.Seed = o.Seed
	clus := cluster.Homogeneous(12, 1)

	for _, e := range entries {
		res, err := core.RunProblem(o.Context, e.prob, clus, cfg, core.Virtual)
		if err != nil {
			return nil, err
		}
		si := SchedInstance{
			Instance:        e.prob.Name(),
			Family:          e.family,
			Jobs:            e.jobs,
			Machines:        e.machines,
			InitialMakespan: int(res.InitialCost),
			BestMakespan:    int(res.BestCost),
			Optimum:         e.optimum,
			LowerBound:      e.lower,
			ModeledSeconds:  res.Elapsed,
		}
		if e.optimum > 0 {
			si.GapPercent = 100 * float64(si.BestMakespan-e.optimum) / float64(e.optimum)
		}
		st, err := e.prob.Initial(o.Seed)
		if err != nil {
			return nil, err
		}
		ss, ok := st.(schedState)
		if !ok {
			return nil, fmt.Errorf("bench: %s state %T lacks DeltaSwapBatch", e.prob.Name(), st)
		}
		sc, ba := measureSchedKernels(ss, o.MeasureDur)
		si.ScalarDeltasPerSec, si.BatchDeltasPerSec = sc, ba
		if sc > 0 {
			si.BatchSpeedup = ba / sc
		}
		rep.Instances = append(rep.Instances, si)
	}
	return rep, nil
}

// RenderSched formats the report for the terminal.
func RenderSched(rep *SchedReport) string {
	out := fmt.Sprintf("scheduling workloads: %dx%d iterations, seed %d\n",
		rep.GlobalIters, rep.LocalIters, rep.Seed)
	for _, si := range rep.Instances {
		line := fmt.Sprintf("  %-16s %2dx%-2d  initial %5d  best %5d",
			si.Instance, si.Jobs, si.Machines, si.InitialMakespan, si.BestMakespan)
		if si.Optimum > 0 {
			line += fmt.Sprintf("  optimum %5d (gap %.1f%%)", si.Optimum, si.GapPercent)
		} else {
			line += fmt.Sprintf("  lower bound %5d", si.LowerBound)
		}
		line += fmt.Sprintf("  deltas/s scalar %.2e batch %.2e (%.2fx)\n",
			si.ScalarDeltasPerSec, si.BatchDeltasPerSec, si.BatchSpeedup)
		out += line
	}
	return out
}

// WriteSched writes the report as <dir>/BENCH_sched.json.
func WriteSched(rep *SchedReport, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_sched.json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
