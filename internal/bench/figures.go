package bench

import (
	"fmt"
	"strconv"

	"pts/internal/core"
	"pts/internal/netlist"
	"pts/internal/stats"
)

// paperFigures are the figure drivers in paper order, keyed by the
// number ptsbench -fig takes.
var paperFigures = []struct {
	n   int
	run func(Opts, *Report) error
}{
	{5, Fig5}, {6, Fig6}, {7, Fig7}, {8, Fig8}, {9, Fig9}, {10, Fig10}, {11, Fig11},
}

// Paper runs one figure driver (fig "5".."11") or all of them in paper
// order (fig "all") into one report of the paper scenario. Each
// record's Layer is its figure (fig05 … fig11).
func Paper(o Opts, fig string) (*Report, error) {
	o = o.withDefaults()
	var figures []string
	var drivers []func(Opts, *Report) error
	for _, f := range paperFigures {
		if fig == "all" || fig == strconv.Itoa(f.n) {
			figures = append(figures, fmt.Sprintf("fig%02d", f.n))
			drivers = append(drivers, f.run)
		}
	}
	if len(drivers) == 0 {
		return nil, fmt.Errorf("bench: unknown figure %q (want 5..11 or all)", fig)
	}
	rep := newReport("paper", "the paper's Figs. 5-11 on the virtual 12-machine testbed; every value is exact in the seeds",
		map[string]any{"figures": figures, "scale": o.Scale, "repeats": o.Repeats,
			"seed": o.Seed, "cluster_seed": o.ClusterSeed, "circuits": o.Circuits})
	for _, d := range drivers {
		if err := d(o, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Fig5 reproduces Figure 5: effect of the number of CLWs (low-level
// parallelization) on the best solution quality, with 4 TSWs, for every
// circuit. One best_cost record per circuit and CLW count
// (<circuit>/clws=<n>), the mean over the repeats. The paper: more CLWs
// improve quality, and the tiny highway saturates.
func Fig5(o Opts, out *Report) error {
	o = o.withDefaults()
	clus := o.testbed()
	for _, name := range o.Circuits {
		nl, err := netlist.Benchmark(name)
		if err != nil {
			return err
		}
		for clws := 1; clws <= 4; clws++ {
			var costs []float64
			for rep := 0; rep < o.Repeats; rep++ {
				cfg := baseConfig(o)
				cfg.TSWs, cfg.CLWs = 4, clws
				cfg.Seed = o.seedFor("fig5", name, rep)
				res, err := runOne(o, fmt.Sprintf("fig5 %s clw=%d rep=%d", name, clws, rep), nl, clus, cfg)
				if err != nil {
					return err
				}
				costs = append(costs, res.BestCost)
			}
			out.add("fig05", fmt.Sprintf("%s/clws=%d", name, clws), "best_cost", runningMean(costs))
		}
	}
	return nil
}

// speedupFigure is the shared engine of Figures 6 and 8: sweep a worker
// axis, define the quality target x per (circuit, repeat) as the final
// best of the 1-worker baseline, and record the mean speedup
// t(1,x)/t(n,x) as <circuit>/<axis>=<n>. Each circuit also records how
// many of its runs never reached x (unreached_runs); their speedup is
// a lower bound taken at the end of the run.
func speedupFigure(o Opts, out *Report, layer, axis, figKey string, circuits []string,
	ns []int, configure func(cfg *core.Config, n int)) error {

	clus := o.testbed()
	for _, name := range circuits {
		nl, err := netlist.Benchmark(name)
		if err != nil {
			return err
		}
		// Per repeat: run the whole sweep with one seed, using the n=1
		// run as both the baseline trace and the target definition.
		speedups := make([][]float64, len(ns))
		unreached := 0
		for rep := 0; rep < o.Repeats; rep++ {
			seed := o.seedFor(figKey, name, rep)
			var base *core.Result
			results := make([]*core.Result, len(ns))
			for i, n := range ns {
				cfg := baseConfig(o)
				cfg.Seed = seed
				configure(&cfg, n)
				res, err := runOne(o, fmt.Sprintf("%s %s n=%d rep=%d", figKey, name, n, rep), nl, clus, cfg)
				if err != nil {
					return err
				}
				results[i] = res
				if n == 1 {
					base = res
				}
			}
			if base == nil {
				return fmt.Errorf("bench: %s: sweep lacks the n=1 baseline", figKey)
			}
			x := base.BestCost // quality target: what one worker achieved
			for i := range ns {
				sp, reached := stats.Speedup(&base.Trace, &results[i].Trace, x)
				if !reached {
					unreached++
				}
				speedups[i] = append(speedups[i], sp)
			}
		}
		for i, n := range ns {
			out.add(layer, fmt.Sprintf("%s/%s=%d", name, axis, n), "speedup", stats.Mean(speedups[i]))
		}
		out.add(layer, name, "unreached_runs", float64(unreached))
	}
	return nil
}

// Fig6 reproduces Figure 6: speedup in reaching a fixed solution
// quality for 1..4 CLWs (TSWs=4), on the two circuits the paper plots.
// The paper: speedup grows with CLWs, steeper for larger circuits.
func Fig6(o Opts, out *Report) error {
	o = o.withDefaults()
	return speedupFigure(o, out, "fig06", "clws", "fig6", intersect(o.Circuits, []string{"c532", "c3540"}),
		[]int{1, 2, 3, 4}, func(cfg *core.Config, n int) { cfg.TSWs, cfg.CLWs = 4, n })
}

// Fig7 reproduces Figure 7: effect of the number of TSWs (high-level
// parallelization) on the best solution quality, with 1 CLW per TSW.
// One best_cost record per circuit and TSW count (<circuit>/tsws=<n>).
// The paper: adding TSWs beyond 4 is not useful.
func Fig7(o Opts, out *Report) error {
	o = o.withDefaults()
	clus := o.testbed()
	for _, name := range o.Circuits {
		nl, err := netlist.Benchmark(name)
		if err != nil {
			return err
		}
		for tsws := 1; tsws <= 8; tsws++ {
			var costs []float64
			for rep := 0; rep < o.Repeats; rep++ {
				cfg := baseConfig(o)
				cfg.TSWs, cfg.CLWs = tsws, 1
				cfg.Seed = o.seedFor("fig7", name, rep)
				res, err := runOne(o, fmt.Sprintf("fig7 %s tsw=%d rep=%d", name, tsws, rep), nl, clus, cfg)
				if err != nil {
					return err
				}
				costs = append(costs, res.BestCost)
			}
			out.add("fig07", fmt.Sprintf("%s/tsws=%d", name, tsws), "best_cost", runningMean(costs))
		}
	}
	return nil
}

// Fig8 reproduces Figure 8: speedup in reaching a fixed solution
// quality for 1..8 TSWs (CLWs=1), on the two circuits the paper plots.
// The paper: speedup peaks near 4 TSWs (the critical point) and
// degrades beyond.
func Fig8(o Opts, out *Report) error {
	o = o.withDefaults()
	return speedupFigure(o, out, "fig08", "tsws", "fig8", intersect(o.Circuits, []string{"c532", "c3540"}),
		[]int{1, 2, 3, 4, 5, 6, 7, 8}, func(cfg *core.Config, n int) { cfg.TSWs, cfg.CLWs = n, 1 })
}

// Fig9 reproduces Figure 9: effect of the TSW diversification step,
// 4 TSWs x 1 CLW, diversified (<circuit>/div) vs not (<circuit>/nodiv).
// Traces from different seeds cannot be averaged pointwise, so each
// side records the final_cost and end_time_s (virtual seconds) of the
// repeat with the median final cost, plus the mean_final_cost over the
// repeats. The paper: the diversified run significantly outperforms the
// non-diversified one.
func Fig9(o Opts, out *Report) error {
	o = o.withDefaults()
	clus := o.testbed()
	for _, name := range o.Circuits {
		nl, err := netlist.Benchmark(name)
		if err != nil {
			return err
		}
		for _, div := range []bool{true, false} {
			label := "div"
			if !div {
				label = "nodiv"
			}
			results := make([]*core.Result, 0, o.Repeats)
			var finals []float64
			for rep := 0; rep < o.Repeats; rep++ {
				cfg := baseConfig(o)
				cfg.TSWs, cfg.CLWs = 4, 1
				cfg.GlobalIters = 10
				if !div {
					cfg.DiversifyDepth = 0
				}
				cfg.Seed = o.seedFor("fig9", name, rep)
				res, err := runOne(o, fmt.Sprintf("fig9 %s %s rep=%d", name, label, rep), nl, clus, cfg)
				if err != nil {
					return err
				}
				results = append(results, res)
				finals = append(finals, res.BestCost)
			}
			med := medianResult(results)
			workload := name + "/" + label
			out.add("fig09", workload, "final_cost", med.Trace.Final())
			out.add("fig09", workload, "end_time_s", med.Trace.End())
			out.add("fig09", workload, "mean_final_cost", stats.Mean(finals))
		}
	}
	return nil
}

// runningMean is the mean of xs in Welford's update order, the order
// Figures 5, 7 and 10 have always averaged their best costs in.
// stats.Mean sums first, which moves 21 of their 72 committed values by
// one ulp; the speedups and Figure 9's means were always stats.Mean.
func runningMean(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		m += (x - m) / float64(i+1)
	}
	return m
}

// medianResult returns the run whose final best cost is the median of
// the set (ties broken by order).
func medianResult(rs []*core.Result) *core.Result {
	best := append([]*core.Result(nil), rs...)
	for i := 1; i < len(best); i++ {
		for j := i; j > 0 && best[j].BestCost < best[j-1].BestCost; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	return best[(len(best)-1)/2]
}

// Fig10 reproduces Figure 10: trading global iterations (more
// diversification) against local iterations (more local investigation)
// at a fixed total budget. One best_cost record per circuit and split,
// keyed by the local iterations per global iteration
// (<circuit>/local=<n>). The paper draws no general conclusion: the
// best split is instance-dependent.
func Fig10(o Opts, out *Report) error {
	o = o.withDefaults()
	// Budget = G*L constant; the paper decreases G while increasing L.
	// The extremes bracket the sweet spot: G=64 leaves only a handful of
	// local iterations per round, G=2 almost never synchronizes or
	// diversifies.
	budget := o.scaled(320, 64)
	splits := [][2]int{
		{64, budget / 64}, {32, budget / 32}, {16, budget / 16},
		{8, budget / 8}, {4, budget / 4}, {2, budget / 2},
	}
	clus := o.testbed()
	for _, name := range o.Circuits {
		nl, err := netlist.Benchmark(name)
		if err != nil {
			return err
		}
		for _, gl := range splits {
			g, l := gl[0], gl[1]
			if l < 1 {
				continue
			}
			var costs []float64
			for rep := 0; rep < o.Repeats; rep++ {
				cfg := baseConfig(o)
				cfg.TSWs, cfg.CLWs = 4, 1
				cfg.GlobalIters, cfg.LocalIters = g, l
				cfg.Seed = o.seedFor("fig10", name, rep)
				res, err := runOne(o, fmt.Sprintf("fig10 %s G=%d L=%d rep=%d", name, g, l, rep), nl, clus, cfg)
				if err != nil {
					return err
				}
				costs = append(costs, res.BestCost)
			}
			out.add("fig10", fmt.Sprintf("%s/local=%d", name, l), "best_cost", runningMean(costs))
		}
	}
	return nil
}

// Fig11 reproduces Figure 11: best cost versus runtime for the
// heterogeneous (half-sync, <circuit>/het) and homogeneous (full
// barrier, <circuit>/hom) collection modes, 4 TSWs x 4 CLWs on the
// 12-machine testbed. Each side records its run's final_cost and
// end_time_s (virtual seconds). The paper: same final quality, the
// heterogeneous run finishes markedly earlier and is never worse at the
// end.
func Fig11(o Opts, out *Report) error {
	o = o.withDefaults()
	clus := o.testbed()
	for _, name := range o.Circuits {
		nl, err := netlist.Benchmark(name)
		if err != nil {
			return err
		}
		for _, half := range []bool{true, false} {
			cfg := baseConfig(o)
			cfg.TSWs, cfg.CLWs = 4, 4
			cfg.GlobalIters = 10
			// Below ~16 local iterations every compound move still finds
			// an improving first step and early-accepts, so forced
			// reports never land mid-move and the two modes coincide.
			if cfg.LocalIters < 16 {
				cfg.LocalIters = 16
			}
			cfg.HalfSync = half
			cfg.Seed = o.seedFor("fig11", name, 0)
			label := "het"
			if !half {
				label = "hom"
			}
			res, err := runOne(o, fmt.Sprintf("fig11 %s %s", name, label), nl, clus, cfg)
			if err != nil {
				return err
			}
			out.add("fig11", name+"/"+label, "final_cost", res.Trace.Final())
			out.add("fig11", name+"/"+label, "end_time_s", res.Trace.End())
		}
	}
	return nil
}

// intersect keeps the elements of want that are present in have,
// preserving want's order; if the intersection is empty it falls back to
// have (so restricted test circuit sets still exercise the driver).
func intersect(have, want []string) []string {
	set := map[string]bool{}
	for _, h := range have {
		set[h] = true
	}
	var out []string
	for _, w := range want {
		if set[w] {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		return have
	}
	return out
}
