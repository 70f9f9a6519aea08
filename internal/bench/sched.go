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
// the total sampling time per throughput kernel, which its
// DefaultHotpathWindows windows share; Opts.Scale multiplies the local
// iterations and the sampling time.
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

// schedBatch is the candidate-batch size both kernels are timed on.
const schedBatch = 64

// measureSchedKernels times the scalar and batched delta kernels on a
// warm state, each over DefaultHotpathWindows windows that share dur,
// and returns the fastest window's deltas/second. The spreads are the
// cross-window ns/op standard deviations scaled to the same rate.
func measureSchedKernels(st schedState, dur time.Duration) (scalar, scalarDev, batch, batchDev float64) {
	size := int(st.Size())
	r := rng.New(99)
	cands := make([]tabu.SwapCand, schedBatch)
	for i := range cands {
		cands[i] = tabu.SwapCand{A: int32(r.Intn(size)), B: int32(r.Intn(size))}
	}
	out := make([]float64, schedBatch)
	perDelta := func(fn func(i int)) (rate, dev float64) {
		ns, _, sd := measureBest(dur, DefaultHotpathWindows, fn)
		return 1e9 / ns, 1e9 / ns * sd / ns
	}
	scalar, scalarDev = perDelta(func(i int) {
		c := cands[i%schedBatch]
		out[0] = st.DeltaSwap(c.A, c.B)
	})
	// One op is one delta here too: the batch kernel runs on every
	// schedBatch-th op, and measure times whole multiples of that.
	batch, batchDev = perDelta(func(i int) {
		if i%schedBatch == 0 {
			st.DeltaSwapBatch(cands, out)
		}
	})
	return scalar, scalarDev, batch, batchDev
}

// Sched runs the scheduling-workload benchmark. Each instance yields
// instance records (jobs, machines, optimum when published,
// lower_bound), search records (initial_makespan, best_makespan,
// gap_percent when the optimum is known, modeled_seconds) and kernel
// records (scalar_deltas_per_sec, batch_deltas_per_sec, batch_speedup),
// each the fastest of its windows with the cross-window spread.
// The search records run on virtual time and are exact in the seed.
func Sched(o Opts) (*Report, error) {
	o = o.scenario("", schedSeed, 0)
	cfg := core.DefaultConfig()
	cfg.GlobalIters, cfg.LocalIters = schedGlobalIters, o.scaled(schedLocalIters, 1)
	cfg.Seed = o.Seed
	window := time.Duration(float64(schedWindow) * o.Scale)
	rep := newReport("sched", "scheduling workloads: engine search quality and delta-kernel throughput per embedded instance",
		map[string]any{"global_iters": cfg.GlobalIters, "local_iters": cfg.LocalIters, "seed": o.Seed, "window_seconds": window.Seconds(), "windows": DefaultHotpathWindows})

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
		sc, scDev, ba, baDev := measureSchedKernels(ss, window)
		for _, r := range []Record{
			{Metric: "scalar_deltas_per_sec", Value: sc, Stddev: scDev},
			{Metric: "batch_deltas_per_sec", Value: ba, Stddev: baDev},
			{Metric: "batch_speedup", Value: ba / sc},
		} {
			r.Layer, r.Workload, r.Windows = "kernel", name, DefaultHotpathWindows
			rep.Records = append(rep.Records, r)
		}
	}
	return rep, nil
}
