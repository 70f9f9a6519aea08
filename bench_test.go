package pts

// One benchmark per data figure of the paper (5–11), plus two
// ablations: half-sync on versus off on the loaded testbed, and
// incremental swap evaluation versus a full cost refresh per move. The
// figure benches run their driver at a reduced scale so
// `go test -bench=.` stays tractable; the full paper-scale record,
// results/BENCH_paper.json, is regenerated with `go run ./cmd/ptsbench`.

import (
	"context"
	"testing"

	"pts/internal/bench"
	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/placement"
	"pts/internal/rng"
)

// benchOpts is the reduced-scale configuration of the figure benches.
func benchOpts() bench.Opts {
	return bench.Opts{
		Scale:    0.15,
		Repeats:  1,
		Seed:     2003,
		Circuits: []string{"highway", "c532"},
	}
}

func runFigure(b *testing.B, driver func(bench.Opts, *bench.Report) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var rep bench.Report
		if err := driver(benchOpts(), &rep); err != nil {
			b.Fatal(err)
		}
		if len(rep.Records) == 0 {
			b.Fatal("figure produced no records")
		}
	}
}

func BenchmarkFig05CLWQuality(b *testing.B)      { runFigure(b, bench.Fig5) }
func BenchmarkFig06CLWSpeedup(b *testing.B)      { runFigure(b, bench.Fig6) }
func BenchmarkFig07TSWQuality(b *testing.B)      { runFigure(b, bench.Fig7) }
func BenchmarkFig08TSWSpeedup(b *testing.B)      { runFigure(b, bench.Fig8) }
func BenchmarkFig09Diversification(b *testing.B) { runFigure(b, bench.Fig9) }
func BenchmarkFig10LocalVsGlobal(b *testing.B)   { runFigure(b, bench.Fig10) }
func BenchmarkFig11Heterogeneity(b *testing.B)   { runFigure(b, bench.Fig11) }

// --- Ablations ---

// BenchmarkAblationHalfSyncOn/Off quantify what the heterogeneity
// adaptation buys per run on the loaded 12-machine testbed.
func benchHalfSync(b *testing.B, half bool) {
	b.Helper()
	nl := netlist.MustBenchmark("c532")
	clus := cluster.Testbed12(12)
	cfg := core.DefaultConfig()
	cfg.TSWs, cfg.CLWs = 4, 4
	cfg.GlobalIters, cfg.LocalIters = 4, 16
	cfg.HalfSync = half
	virt := 0.0
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := core.RunProblem(context.Background(), cost.NewPlacementProblem(nl), clus, cfg, core.Virtual)
		if err != nil {
			b.Fatal(err)
		}
		virt += res.Elapsed
	}
	b.ReportMetric(virt/float64(b.N), "vsec/run")
}

func BenchmarkAblationHalfSyncOn(b *testing.B)  { benchHalfSync(b, true) }
func BenchmarkAblationHalfSyncOff(b *testing.B) { benchHalfSync(b, false) }

// BenchmarkAblationIncremental/FullCost compare the incremental swap
// evaluation against recomputing the objectives from scratch — the
// bookkeeping the whole search rests on.
func BenchmarkAblationIncrementalCost(b *testing.B) {
	ev := newBenchEvaluator(b)
	r := rng.New(1)
	n := int(ev.NumCells())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.ApplySwap(netlist.CellID(r.Intn(n)), netlist.CellID(r.Intn(n)))
	}
}

func BenchmarkAblationFullCostRefresh(b *testing.B) {
	ev := newBenchEvaluator(b)
	r := rng.New(1)
	n := int(ev.NumCells())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.ApplySwap(netlist.CellID(r.Intn(n)), netlist.CellID(r.Intn(n)))
		ev.Refresh() // what every move would cost without incrementality
	}
}

func newBenchEvaluator(b *testing.B) *cost.Evaluator {
	b.Helper()
	nl := netlist.MustBenchmark("c1355")
	p, err := placement.New(nl, placement.AutoLayout(nl, 0.9))
	if err != nil {
		b.Fatal(err)
	}
	p.Randomize(rng.New(7))
	ev, err := cost.NewEvaluator(p, cost.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// BenchmarkVirtualRuntime and BenchmarkRealRuntime time one identical
// small PTS run on both runtimes: the difference is the discrete-event
// kernel's overhead versus true goroutine parallelism.
func BenchmarkVirtualRuntime(b *testing.B) {
	benchRuntime(b, core.Virtual)
}

func BenchmarkRealRuntime(b *testing.B) {
	benchRuntime(b, core.Real)
}

func benchRuntime(b *testing.B, mode core.Mode) {
	b.Helper()
	nl := netlist.MustBenchmark("highway")
	clus := cluster.Homogeneous(12, 1)
	cfg := core.DefaultConfig()
	cfg.TSWs, cfg.CLWs = 4, 2
	cfg.GlobalIters, cfg.LocalIters = 3, 10
	if mode == core.Real {
		cfg.WorkPerTrial = 0
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := core.RunProblem(context.Background(), cost.NewPlacementProblem(nl), clus, cfg, mode); err != nil {
			b.Fatal(err)
		}
	}
}
