// Package bench is the experiment harness: one driver per data figure
// of the paper's evaluation section (Figures 5–11) and the scenario
// benchmarks, all reporting through one Report schema. Every figure
// driver runs the parallel tabu search on the virtual runtime, so its
// records are deterministic in the seeds and independent of the host
// machine; Paper collects them into results/BENCH_paper.json.
//
// Figure inventory (`go run ./cmd/ptsbench -fig N` regenerates one):
//
//	Fig5  — best solution quality vs number of CLWs (TSWs=4)
//	Fig6  — speedup to reach quality x vs number of CLWs
//	Fig7  — best solution quality vs number of TSWs (CLWs=1)
//	Fig8  — speedup to reach quality x vs number of TSWs
//	Fig9  — diversification on vs off (best cost traces)
//	Fig10 — local vs global iteration budget split
//	Fig11 — heterogeneous (half-sync) vs homogeneous collection traces
package bench

import (
	"context"
	"fmt"
	"math"

	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/rng"
)

// Opts scales and seeds the experiments.
type Opts struct {
	// Context, when non-nil, bounds the whole figure sweep: a cancelled
	// context aborts the current run at its next protocol boundary and
	// the driver returns the context's error.
	Context context.Context
	// Scale multiplies the per-run iteration budgets; 1.0 reproduces the
	// full figures, tests use ~0.1.
	Scale float64
	// Repeats averages each data point over this many seeds (default 3,
	// scaled down with Scale but at least 1).
	Repeats int
	// Seed derives every run's seed.
	Seed uint64
	// ClusterSeed drives the testbed's load traces (0 = idle machines).
	ClusterSeed uint64
	// Circuits restricts the benchmark circuits (default: all four).
	Circuits []string
	// WorkScale is the scenario benchmarks' wall-seconds-per-modeled-
	// second work emulation factor (0 = the scenario's default); the
	// figure drivers run on virtual time and ignore it.
	WorkScale float64
	// Progress, when non-nil, receives one line per completed run.
	Progress func(string)
}

// withDefaults normalizes options.
func (o Opts) withDefaults() Opts {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Repeats <= 0 {
		o.Repeats = 3
		if o.Scale < 0.5 {
			o.Repeats = 1
		}
	}
	if o.Seed == 0 {
		o.Seed = 2003
	}
	if o.ClusterSeed == 0 {
		o.ClusterSeed = 12
	}
	if len(o.Circuits) == 0 {
		o.Circuits = netlist.BenchmarkNames()
	}
	return o
}

// scaled rounds n*Scale down to no less than lo.
func (o Opts) scaled(n int, lo int) int {
	v := int(math.Round(float64(n) * o.Scale))
	if v < lo {
		return lo
	}
	return v
}

// baseConfig is the shared parameter set of all figures; individual
// drivers override the axes they sweep.
func baseConfig(o Opts) core.Config {
	cfg := core.DefaultConfig()
	cfg.GlobalIters = 8
	cfg.LocalIters = o.scaled(40, 4)
	cfg.Trials = 12
	cfg.Depth = 4
	cfg.Tenure = 10
	cfg.DiversifyDepth = 12
	cfg.HalfSync = true
	return cfg
}

// testbed returns the paper's 12-machine platform.
func (o Opts) testbed() cluster.Cluster { return cluster.Testbed12(o.ClusterSeed) }

// runOne executes one virtual run and reports progress. The run is
// bound to Opts.Context: an interrupted run aborts the whole sweep
// (partial figure data would be misleading).
func runOne(o Opts, label string, nl *netlist.Netlist, clus cluster.Cluster, cfg core.Config) (*core.Result, error) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	pp := cost.NewPlacementProblem(nl)
	res, err := core.RunProblem(ctx, pp, clus, cfg, core.Virtual)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", label, err)
	}
	if res.Interrupted {
		return nil, fmt.Errorf("bench: %s: %w", label, ctx.Err())
	}
	if o.Progress != nil {
		o.Progress(fmt.Sprintf("%-34s best=%.4f elapsed=%.3fs", label, res.BestCost, res.Elapsed))
	}
	return res, nil
}

// seedFor derives the seed of one repeat of one experiment.
func (o Opts) seedFor(fig, circuit string, repeat int) uint64 {
	return rng.DeriveN(rng.Derive(o.Seed, "bench", fig, circuit), repeat)
}
