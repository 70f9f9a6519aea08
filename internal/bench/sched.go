package bench

import (
	"fmt"
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
// job shop decodes the window between the checkpoints around the swap
// and closes it with max-plus tails — so the absolute deltas/sec figures quantify how much heavier these
// evaluators are, and the batch-vs-scalar ratio documents that the
// BatchEvaluator path adds no overhead even where it cannot add speed
// (both paths amortize the same lazily rebuilt caches; the batch
// contract here buys bit-identical pluggability, not extra throughput).

// The sched scenario's search budget per instance, its default seed and
// the sampling window per throughput kernel; Opts.Scale multiplies the
// local iterations and the window.
const (
	schedGlobalIters = 10
	schedLocalIters  = 60
	schedSeed        = 1
	schedWindow      = 300 * time.Millisecond
)

// schedState is the common surface of the two workloads' states the
// throughput sampler drives.
type schedState interface {
	core.State
	DeltaSwapBatch(cands []tabu.SwapCand, out []float64)
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

// Sched runs the scheduling-workload benchmark. Each instance yields
// instance records (jobs, machines, optimum when published,
// lower_bound), search records (initial_makespan, best_makespan,
// gap_percent when the optimum is known, modeled_seconds) and kernel
// records (scalar_deltas_per_sec, batch_deltas_per_sec, batch_speedup).
// The search records run on virtual time and are exact in the seed.
func Sched(o Opts) (*Report, error) {
	o = o.scenario("", schedSeed, 0)
	cfg := core.DefaultConfig()
	cfg.GlobalIters, cfg.LocalIters = schedGlobalIters, o.scaled(schedLocalIters, 1)
	cfg.Seed = o.Seed
	window := time.Duration(float64(schedWindow) * o.Scale)
	rep := newReport("sched", "scheduling workloads: engine search quality and delta-kernel throughput per embedded instance",
		map[string]any{"global_iters": cfg.GlobalIters, "local_iters": cfg.LocalIters, "seed": o.Seed, "window_seconds": window.Seconds()})

	type entry struct {
		prob           core.Problem
		jobs, machines int
		optimum, lower int
	}
	var entries []entry
	for _, name := range schedinst.FlowShopNames() {
		ins, err := schedinst.FlowShopByName(name)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{flowshop.NewProblem(ins), ins.Jobs, ins.Machines, ins.Upper, flowshop.LowerBound(ins)})
	}
	for _, name := range schedinst.JobShopNames() {
		ins, err := schedinst.JobShopByName(name)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{jobshop.NewProblem(ins), ins.Jobs, ins.Machines, ins.Optimum, jobshop.LowerBound(ins)})
	}

	clus := cluster.Homogeneous(12, 1)
	for _, e := range entries {
		res, err := core.RunProblem(o.Context, e.prob, clus, cfg, core.Virtual)
		if err != nil {
			return nil, err
		}
		name := e.prob.Name()
		rep.add("instance", name, "jobs", float64(e.jobs))
		rep.add("instance", name, "machines", float64(e.machines))
		if e.optimum > 0 {
			rep.add("instance", name, "optimum", float64(e.optimum))
		}
		rep.add("instance", name, "lower_bound", float64(e.lower))
		rep.add("search", name, "initial_makespan", res.InitialCost)
		rep.add("search", name, "best_makespan", res.BestCost)
		if e.optimum > 0 {
			rep.add("search", name, "gap_percent", 100*(res.BestCost-float64(e.optimum))/float64(e.optimum))
		}
		rep.add("search", name, "modeled_seconds", res.Elapsed)

		st, err := e.prob.Initial(o.Seed)
		if err != nil {
			return nil, err
		}
		ss, ok := st.(schedState)
		if !ok {
			return nil, fmt.Errorf("bench: %s state %T lacks DeltaSwapBatch", name, st)
		}
		sc, ba := measureSchedKernels(ss, window)
		rep.add("kernel", name, "scalar_deltas_per_sec", sc)
		rep.add("kernel", name, "batch_deltas_per_sec", ba)
		if sc > 0 {
			rep.add("kernel", name, "batch_speedup", ba/sc)
		}
	}
	return rep, nil
}
