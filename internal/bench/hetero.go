package bench

import (
	"fmt"

	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/cost"
	"pts/internal/netlist"
)

// Heterogeneity benchmark: static vs adaptive partitioning on an
// emulated speed-skewed cluster. Unlike the figure drivers this runs in
// Real mode with WorkScale speed emulation — every modeled trial costs
// real wall time scaled by its machine's declared speed — so the
// measured quantity is genuine wall-clock make-span at an equal
// iteration budget. One fast (4x) and three slow (1x) CLW hosts
// reproduce the regime the adaptive scheduler targets: statically the
// slow nodes bound every iteration; adaptively the fast node carries a
// speed-proportional share of the trial budget and rounds finish
// together.

// The hetero scenario's iteration budget (identical for both sides, by
// construction; Opts.Scale multiplies the local iterations) and its
// defaults for Opts.Circuits, Seed and WorkScale. A larger WorkScale
// gives cleaner ratios — per-step sleeps dwarf the OS timer quantum —
// but longer runs.
const (
	heteroGlobalIters = 3
	heteroLocalIters  = 20
	heteroCircuit     = "highway"
	heteroSeed        = 7
	heteroWorkScale   = 150
)

// heteroSpeeds are the emulated platform's machine speeds: machine 0
// hosts the master, machine 1 the TSW (fast, so coordination is never
// the bottleneck), and machines 2..5 the four CLWs — one fast (4x),
// three slow (1x).
var heteroSpeeds = []float64{1, 4, 4, 1, 1, 1}

// heteroCluster builds the emulated platform.
func heteroCluster() cluster.Cluster {
	ms := make([]cluster.Machine, len(heteroSpeeds))
	for i, s := range heteroSpeeds {
		ms[i] = cluster.Machine{Name: fmt.Sprintf("h%02d", i), Speed: s}
	}
	base := cluster.Homogeneous(1, 1)
	return cluster.Cluster{Machines: ms, SendLatency: base.SendLatency, PerItem: base.PerItem}
}

// Hetero runs the static-vs-adaptive comparison. Each side (workload
// static or adaptive) yields engine records wall_seconds, best_cost,
// rebalances and forced_reports; the adaptive side's speedup is static
// wall time over adaptive wall time at the equal iteration budget.
func Hetero(o Opts) (*Report, error) {
	o = o.scenario(heteroCircuit, heteroSeed, heteroWorkScale)
	nl, err := netlist.Benchmark(o.Circuits[0])
	if err != nil {
		return nil, err
	}
	clus := heteroCluster()

	cfg := core.DefaultConfig()
	cfg.TSWs, cfg.CLWs = 1, 4
	cfg.GlobalIters, cfg.LocalIters = heteroGlobalIters, o.scaled(heteroLocalIters, 1)
	cfg.Seed = o.Seed
	// Full collection: both sides run the identical iteration budget, so
	// the wall-time ratio isolates the partitioning policy (half-sync
	// would instead trade quality for time by truncating stragglers).
	cfg.HalfSync = false
	cfg.WorkScale = o.WorkScale
	// One wide sampling step per candidate: each iteration's critical
	// path is then exactly the per-step trial budget — the quantity the
	// adaptive scheduler balances — rather than the early-accept step
	// count, which varies stochastically and buries the scheduling
	// signal. The total trial work per iteration matches the default
	// m=12/d=4 budget at a quarter of the synchronization points.
	cfg.Trials, cfg.Depth = 64, 1

	rep := newReport("hetero", "heterogeneous scheduling: static vs adaptive partitioning at equal iteration budget",
		map[string]any{"circuit": nl.Name, "machine_speeds": heteroSpeeds, "work_scale": o.WorkScale,
			"global_iters": cfg.GlobalIters, "local_iters": cfg.LocalIters, "seed": o.Seed})
	var wall [2]float64
	for i, side := range []string{"static", "adaptive"} {
		c := cfg
		c.Adaptive = i == 1
		pp := cost.NewPlacementProblem(nl)
		res, err := core.RunProblem(o.Context, pp, clus, c, core.Real)
		if err != nil {
			return nil, err
		}
		wall[i] = res.Elapsed
		rep.add("engine", side, "wall_seconds", res.Elapsed)
		rep.add("engine", side, "best_cost", res.BestCost)
		rep.add("engine", side, "rebalances", float64(res.Stats.Rebalances))
		rep.add("engine", side, "forced_reports", float64(res.Stats.ForcedReports))
	}
	if wall[1] > 0 {
		rep.add("engine", "adaptive", "speedup", wall[0]/wall[1])
	}
	return rep, nil
}
