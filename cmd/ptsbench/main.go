// Command ptsbench regenerates the paper's evaluation figures
// (Figures 5–11) on the virtual heterogeneous cluster and writes ASCII
// charts to stdout and CSV and SVG files to an output directory, or runs
// one scenario benchmark and writes its JSON record there.
//
// Usage:
//
//	ptsbench                     # all figures at full scale
//	ptsbench -fig 11 -v          # one figure, with per-run progress
//	ptsbench -scale 0.25         # quarter iteration budgets (quick look)
//	ptsbench -circuits highway,c532 -out results
//	ptsbench -hotpath            # trial-kernel microbench -> BENCH_hotpath.json
//	ptsbench -hetero             # static vs adaptive scheduling on a 4:1 skewed cluster -> BENCH_hetero.json
//	ptsbench -recovery           # fold-only vs respawn after a mid-run worker kill -> BENCH_recovery.json
//	ptsbench -serve              # multi-job scheduler throughput/latency on a shared fleet -> BENCH_serve.json
//	ptsbench -sched              # flow/job shop search quality + delta-kernel throughput -> BENCH_sched.json
//
// Every BENCH_*.json is one bench.Report: a host header (Go version,
// GOMAXPROCS, NumCPU, time), the scenario's inputs and flat records; a
// regenerated file keeps the records it replaces as its baseline.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"pts/internal/bench"
)

// scenarios are the system-level benchmarks; each writes one
// BENCH_<name>.json record.
var scenarios = []struct {
	name, help string
	run        func(bench.Opts) (*bench.Report, error)
}{
	{"hetero", "compare static vs adaptive scheduling wall time on an emulated 1-fast/3-slow cluster", bench.Hetero},
	{"recovery", "compare fold-only vs respawn recovery after a mid-run worker kill over loopback TCP", bench.Recovery},
	{"serve", "measure the multi-job serving scheduler (jobs/minute, p50/p95 latency at 1 vs full-fleet concurrency) over a loopback fleet", bench.Serve},
	{"sched", "run the engine over every embedded flow/job shop instance and measure the scalar vs batched delta kernels", bench.Sched},
}

func main() {
	var (
		fig          = flag.String("fig", "all", "figure to regenerate: 5..11 or all")
		scale        = flag.Float64("scale", 1.0, "iteration budget multiplier (1.0 = paper scale)")
		repeats      = flag.Int("repeats", 0, "seeds per data point (0 = default)")
		seed         = flag.Uint64("seed", 0, "master experiment seed (0 = default)")
		clusterSeed  = flag.Uint64("cluster-seed", 0, "testbed load-trace seed (0 = default)")
		circuits     = flag.String("circuits", "", "comma-separated circuit subset (default: all four; a scenario runs on the first)")
		workScale    = flag.Float64("workscale", 0, "work emulation factor (wall seconds per modeled second) for -hetero, -recovery and -serve (0 = the scenario's default)")
		out          = flag.String("out", "results", "directory for figure CSV/SVG files and BENCH_*.json records")
		timeout      = flag.Duration("timeout", 0, "abort the sweep after this long (0 = unbounded)")
		verbose      = flag.Bool("v", false, "print one line per completed run")
		hotpath      = flag.Bool("hotpath", false, "measure the trial-evaluation hot path and write BENCH_hotpath.json")
		hotpathDur   = flag.Duration("hotpath-dur", time.Second, "measurement duration per hot-path kernel")
		hotpathGuard = flag.String("hotpath-guard", "", "with -hotpath: fail if any of these circuits' (comma-separated) trials_per_sec regressed below the previous committed records by more than -hotpath-tol, or if allocs_per_trial != 0 in the JSON")
		hotpathTol   = flag.Float64("hotpath-tol", 0.10, "relative throughput regression tolerance for -hotpath-guard")
		windows      = flag.Int("windows", bench.DefaultHotpathWindows, "best-of-K measurement windows per hot-path kernel; per-window stddev lands in the JSON")
	)
	selected := make([]*bool, len(scenarios))
	for i, sc := range scenarios {
		selected[i] = flag.Bool(sc.name, false, sc.help+" and write BENCH_"+sc.name+".json")
	}
	flag.Parse()

	var subset []string
	if *circuits != "" {
		subset = strings.Split(*circuits, ",")
	}

	if *hotpath {
		rep, err := bench.Hotpath(subset, *hotpathDur, *windows)
		if err != nil {
			fatal(err)
		}
		report(rep, *out)
		if *hotpathGuard != "" {
			msg, err := bench.HotpathGuard(rep, *hotpathGuard, *hotpathTol)
			if err != nil {
				fatal(err)
			}
			fmt.Println(msg)
		}
		return
	}

	// Ctrl-C (or -timeout) cancels the sweep at the next protocol
	// boundary instead of leaving a half-written results directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := bench.Opts{
		Context:     ctx,
		Scale:       *scale,
		Repeats:     *repeats,
		Seed:        *seed,
		ClusterSeed: *clusterSeed,
		Circuits:    subset,
		WorkScale:   *workScale,
	}
	for i, sc := range scenarios {
		if *selected[i] {
			rep, err := sc.run(opts)
			if err != nil {
				fatal(err)
			}
			report(rep, *out)
			return
		}
	}
	if *verbose {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	drivers := map[string]func(bench.Opts) (*bench.Figure, error){
		"5": bench.Fig5, "6": bench.Fig6, "7": bench.Fig7, "8": bench.Fig8,
		"9": bench.Fig9, "10": bench.Fig10, "11": bench.Fig11,
	}

	var figs []*bench.Figure
	if *fig == "all" {
		all, err := bench.All(opts)
		if err != nil {
			fatal(err)
		}
		figs = all
	} else {
		d, ok := drivers[*fig]
		if !ok {
			fatal(fmt.Errorf("unknown figure %q (want 5..11 or all)", *fig))
		}
		f, err := d(opts)
		if err != nil {
			fatal(err)
		}
		figs = append(figs, f)
	}

	for _, f := range figs {
		fmt.Println(bench.RenderASCII(f))
		csvPath, err := bench.WriteCSV(f, *out)
		if err != nil {
			fatal(err)
		}
		svgPath, err := bench.WriteSVG(f, *out)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s and %s\n\n", csvPath, svgPath)
	}
}

// report writes rep into dir and prints it.
func report(rep *bench.Report, dir string) {
	path, err := bench.Write(rep, dir)
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench.Render(rep))
	fmt.Printf("wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptsbench:", err)
	os.Exit(1)
}
