// Command ptsbench regenerates the paper's evaluation figures
// (Figures 5–11) on the virtual heterogeneous cluster and writes ASCII
// charts to stdout and CSV files to an output directory.
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

func main() {
	var (
		fig          = flag.String("fig", "all", "figure to regenerate: 5..11 or all")
		scale        = flag.Float64("scale", 1.0, "iteration budget multiplier (1.0 = paper scale)")
		repeats      = flag.Int("repeats", 0, "seeds per data point (0 = default)")
		seed         = flag.Uint64("seed", 0, "master experiment seed (0 = default)")
		clusterSeed  = flag.Uint64("cluster-seed", 0, "testbed load-trace seed (0 = default)")
		circuits     = flag.String("circuits", "", "comma-separated circuit subset (default: all four)")
		out          = flag.String("out", "results", "directory for CSV output")
		timeout      = flag.Duration("timeout", 0, "abort the sweep after this long (0 = unbounded)")
		verbose      = flag.Bool("v", false, "print one line per completed run")
		hotpath      = flag.Bool("hotpath", false, "measure the trial-evaluation hot path and write BENCH_hotpath.json")
		hotpathDur   = flag.Duration("hotpath-dur", time.Second, "measurement duration per hot-path kernel")
		hotpathGuard = flag.String("hotpath-guard", "", "with -hotpath: fail if any of these circuits' (comma-separated) trials/sec regressed below the previous committed results by more than -hotpath-tol, or if allocs_per_trial != 0 in the JSON")
		hotpathTol   = flag.Float64("hotpath-tol", 0.10, "relative throughput regression tolerance for -hotpath-guard")
		windows      = flag.Int("windows", bench.DefaultHotpathWindows, "best-of-K measurement windows per hot-path kernel; per-window stddev lands in the JSON")
		hetero       = flag.Bool("hetero", false, "compare static vs adaptive scheduling wall time on an emulated 1-fast/3-slow cluster and write BENCH_hetero.json")
		heteroScale  = flag.Float64("hetero-workscale", 0, "work emulation factor for -hetero (0 = default)")
		recovery     = flag.Bool("recovery", false, "compare fold-only vs respawn recovery after a mid-run worker kill over loopback TCP and write BENCH_recovery.json")
		recScale     = flag.Float64("recovery-workscale", 0, "work emulation factor for -recovery (0 = default)")
		recKillAt    = flag.Int("recovery-kill-round", 0, "round whose report triggers the -recovery kill (0 = default)")
		serveBench   = flag.Bool("serve", false, "measure the multi-job serving scheduler (jobs/minute, p50/p95 latency at 1 vs full-fleet concurrency) over a loopback fleet and write BENCH_serve.json + bench_serve.md")
		serveJobs    = flag.Int("serve-jobs", 0, "jobs per concurrency level for -serve (0 = default)")
		serveFleet   = flag.Int("serve-fleet", 0, "loopback fleet size for -serve (0 = default 4)")
		sched        = flag.Bool("sched", false, "run the engine over every embedded flow/job shop instance and measure the scalar vs batched delta kernels, writing BENCH_sched.json")
		schedDur     = flag.Duration("sched-dur", 0, "throughput sampling window per kernel for -sched (0 = default 300ms)")
	)
	flag.Parse()

	if *hotpath {
		var subset []string
		if *circuits != "" {
			subset = strings.Split(*circuits, ",")
		}
		rep, err := bench.Hotpath(subset, *hotpathDur, *windows)
		if err != nil {
			fatal(err)
		}
		path, err := bench.WriteHotpath(rep, *out)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.RenderHotpath(rep))
		fmt.Printf("wrote %s\n", path)
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

	if *sched {
		rep, err := bench.Sched(bench.SchedOpts{
			Context:    ctx,
			Scale:      *scale,
			Seed:       *seed,
			MeasureDur: *schedDur,
		})
		if err != nil {
			fatal(err)
		}
		path, err := bench.WriteSched(rep, *out)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.RenderSched(rep))
		fmt.Printf("wrote %s\n", path)
		return
	}

	if *recovery {
		var circuit string
		if *circuits != "" {
			circuit = strings.Split(*circuits, ",")[0]
		}
		rep, err := bench.Recovery(bench.RecoveryOpts{
			Context:   ctx,
			Circuit:   circuit,
			WorkScale: *recScale,
			KillRound: *recKillAt,
			Scale:     *scale,
			Seed:      *seed,
		})
		if err != nil {
			fatal(err)
		}
		path, err := bench.WriteRecovery(rep, *out)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.RenderRecovery(rep))
		fmt.Printf("wrote %s\n", path)
		return
	}

	if *serveBench {
		var circuit string
		if *circuits != "" {
			circuit = strings.Split(*circuits, ",")[0]
		}
		rep, err := bench.Serve(bench.ServeOpts{
			Context:      ctx,
			Circuit:      circuit,
			FleetWorkers: *serveFleet,
			Jobs:         *serveJobs,
			Scale:        *scale,
			Seed:         *seed,
		})
		if err != nil {
			fatal(err)
		}
		path, err := bench.WriteServe(rep, *out)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.RenderServe(rep))
		fmt.Printf("wrote %s\n", path)
		return
	}

	if *hetero {
		// The hetero scenario compares one circuit; only the first
		// -circuits entry applies. -scale shrinks/grows the local
		// iteration budget like the figure drivers.
		var circuit string
		if *circuits != "" {
			circuit = strings.Split(*circuits, ",")[0]
		}
		rep, err := bench.Hetero(bench.HeteroOpts{
			Context:   ctx,
			Circuit:   circuit,
			WorkScale: *heteroScale,
			Scale:     *scale,
			Seed:      *seed,
		})
		if err != nil {
			fatal(err)
		}
		path, err := bench.WriteHetero(rep, *out)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.RenderHetero(rep))
		fmt.Printf("wrote %s\n", path)
		return
	}

	opts := bench.Opts{
		Context:     ctx,
		Scale:       *scale,
		Repeats:     *repeats,
		Seed:        *seed,
		ClusterSeed: *clusterSeed,
	}
	if *circuits != "" {
		opts.Circuits = strings.Split(*circuits, ",")
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptsbench:", err)
	os.Exit(1)
}
