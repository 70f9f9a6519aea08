// Command pts runs one parallel tabu search through the public pts API
// and prints the outcome.
//
// Usage:
//
//	pts -circuit c532                          # defaults: 4 TSWs, 1 CLW
//	pts -circuit c3540 -tsws 4 -clws 4 -het=false
//	pts -circuit highway -mode real            # wall-clock goroutine run
//	pts -netlist my.net                        # search a custom circuit
//	pts -netlist s1494.bench                   # a real ISCAS-89 .bench file
//	pts -qap 64                                # quadratic assignment instead
//	pts -flowshop ta001                        # Taillard flow shop benchmark
//	pts -jobshop ft06                          # OR-Library job shop benchmark
//	pts -circuit c3540 -timeout 2s -progress   # bounded, streamed run
//	pts -circuit c532 -state-dir /tmp/run      # durable: re-run the same command to resume after a kill
//
// Distributed mode runs the same protocol across OS processes over TCP
// (every process must be given the same problem inputs):
//
//	pts -circuit c532 -serve :9017 -net-workers 3   # master: wait for 3 workers, then run
//	pts -circuit c532 -worker host:9017 -speed 0.55 # worker daemon: join and host tasks
//	pts -worker host:9017 -any -jobs 0              # fleet worker for ptsd: serve any workload until SIGTERM
//
// Worker daemons drain gracefully on SIGTERM (deregister from the
// master, then exit) and stop hard on Ctrl-C.
//
// The run is context-bound: -timeout and Ctrl-C both cancel it, and the
// best solution found so far is printed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"pts"
)

func main() {
	var (
		circuit  = flag.String("circuit", "c532", "benchmark circuit (highway, c532, c1355, c3540)")
		nlPath   = flag.String("netlist", "", "path to a netlist file (overrides -circuit)")
		qapN     = flag.Int("qap", 0, "solve a random QAP of this size instead of placement")
		fsName   = flag.String("flowshop", "", "solve an embedded flow shop benchmark (ta001) or Taillard file instead of placement")
		jsName   = flag.String("jobshop", "", "solve an embedded job shop benchmark (ft06, ft10, la01) or OR-Library file instead of placement")
		tsws     = flag.Int("tsws", 4, "number of tabu search workers")
		clws     = flag.Int("clws", 1, "candidate-list workers per TSW")
		gIters   = flag.Int("global", 10, "global iterations")
		lIters   = flag.Int("local", 40, "local iterations per global iteration")
		trials   = flag.Int("trials", 12, "trial pairs per compound-move step (m)")
		depth    = flag.Int("depth", 4, "compound move depth (d)")
		tenure   = flag.Int("tenure", 10, "tabu tenure")
		div      = flag.Int("diversify", 12, "diversification depth (0 = off)")
		het      = flag.Bool("het", true, "half-sync heterogeneous collection")
		adaptive = flag.Bool("adaptive", false, "throughput-proportional adaptive scheduling (speed-seeded shares, loss-tolerant distributed runs)")
		respawn  = flag.Bool("respawn", true, "adaptive mode: recover lost workers (respawn CLWs onto live capacity, resurrect TSWs from checkpoints); false = fold-only degradation")
		mode     = flag.String("mode", "virtual", "runtime: virtual or real")
		stateDir = flag.String("state-dir", "", "directory for durable run state; re-running the same command resumes an interrupted run from it")
		seed     = flag.Uint64("seed", 1, "run seed")
		loadSeed = flag.Uint64("cluster-seed", 12, "testbed load-trace seed (0 = idle machines)")
		timeout  = flag.Duration("timeout", 0, "cancel the run after this long (0 = unbounded)")
		progress = flag.Bool("progress", false, "print one line per global iteration")
		trace    = flag.Bool("trace", false, "print the best-cost trace")
		path     = flag.Bool("path", false, "print the critical path of the best placement")
		jsonOut  = flag.String("json", "", "write the full result as JSON to this file ('-' = stdout)")
		svgOut   = flag.String("svg", "", "write a congestion heat map of the best placement to this SVG file")

		// Distributed mode (real TCP processes instead of goroutines).
		serveAddr  = flag.String("serve", "", "master mode: listen on this address and run distributed (implies -mode real)")
		netWorkers = flag.Int("net-workers", 1, "master mode: worker processes to wait for before starting")
		workerAddr = flag.String("worker", "", "worker mode: join the master at this address and host tasks")
		anyProb    = flag.Bool("any", false, "worker mode: serve any built-in workload named by each job's payload (for ptsd fleets; ignores -circuit/-qap)")
		nodeName   = flag.String("node-name", "", "worker mode: cluster-unique node name (default hostname:pid)")
		speed      = flag.Float64("speed", 1.0, "worker mode: declared relative speed factor of this node")
		capacity   = flag.Int("capacity", 1, "worker mode: machine slots this node contributes")
		jobs       = flag.Int("jobs", 1, "worker mode: jobs to serve before exiting (0 = until Ctrl-C)")
		workScale  = flag.Float64("workscale", 0, "real/master mode: emulate machine speed by sleeping this many wall seconds per modeled second of work (workers receive the scale from the master's job)")
	)
	flag.Parse()

	// The run stops at the next protocol boundary on Ctrl-C or timeout
	// and reports the best solution found so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// A resolver-equipped worker builds each job's problem on demand and
	// needs no local inputs at all.
	if *workerAddr != "" && *anyProb {
		runWorker(ctx, nil, *workerAddr, *nodeName, *speed, *capacity, *jobs)
		return
	}

	// Non-placement workloads make the placement-only flags meaningless.
	warnPlacementOnly := func(sel string) {
		for flagName, set := range map[string]bool{
			"-netlist": *nlPath != "", "-path": *path, "-svg": *svgOut != "",
		} {
			if set {
				fmt.Fprintf(os.Stderr, "pts: warning: %s is placement-only, ignored with %s\n", flagName, sel)
			}
		}
	}

	var selected []string
	for sel, set := range map[string]bool{
		"-qap": *qapN > 0, "-flowshop": *fsName != "", "-jobshop": *jsName != "",
	} {
		if set {
			selected = append(selected, sel)
		}
	}
	if len(selected) > 1 {
		sort.Strings(selected)
		fatal(fmt.Errorf("%s select different workloads; pass exactly one", strings.Join(selected, " and ")))
	}

	var problem pts.Problem
	var placed *pts.PlacementProblem
	switch {
	case *qapN > 0:
		warnPlacementOnly("-qap")
		problem = pts.RandomQAP(*qapN, *seed)
		fmt.Printf("problem %s: %d facilities\n", problem.Name(), *qapN)
	case *fsName != "":
		warnPlacementOnly("-flowshop")
		fs, err := loadFlowShop(*fsName)
		if err != nil {
			fatal(err)
		}
		problem = fs
		fmt.Printf("problem %s: %s\n", fs.Name(), fs.Describe())
	case *jsName != "":
		warnPlacementOnly("-jobshop")
		js, err := loadJobShop(*jsName)
		if err != nil {
			fatal(err)
		}
		problem = js
		fmt.Printf("problem %s: %s\n", js.Name(), js.Describe())
	default:
		var err error
		placed, err = loadCircuit(*nlPath, *circuit)
		if err != nil {
			fatal(err)
		}
		problem = placed
		fmt.Printf("circuit %s: %s\n", placed.Name(), placed.Describe())
	}

	if *workerAddr != "" {
		runWorker(ctx, problem, *workerAddr, *nodeName, *speed, *capacity, *jobs)
		return
	}

	opts := []pts.Option{
		pts.WithWorkers(*tsws, *clws),
		pts.WithIterations(*gIters, *lIters),
		pts.WithTabu(*tenure, *trials, *depth),
		pts.WithDiversification(*div),
		pts.WithHalfSync(*het),
		pts.WithAdaptive(*adaptive),
		pts.WithRespawn(*respawn),
		pts.WithSeed(*seed),
		pts.WithCluster(pts.Testbed12(*loadSeed)),
		pts.WithWorkScale(*workScale),
	}
	if *stateDir != "" {
		st, err := pts.NewFileStore(*stateDir)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, pts.WithStore(st))
	}
	if *serveAddr != "" {
		if *mode == "virtual" {
			*mode = "real" // a distributed run is a real-time run
		}
		master, err := pts.ListenMaster(*serveAddr, *netWorkers)
		if err != nil {
			fatal(err)
		}
		defer master.Close()
		opts = append(opts, pts.WithMaster(master))
		fmt.Printf("serving on %s, waiting for %d worker(s)\n", master.Addr(), *netWorkers)
	}
	switch *mode {
	case "virtual":
		opts = append(opts, pts.WithVirtualTime())
	case "real":
		opts = append(opts, pts.WithRealTime())
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if *progress {
		opts = append(opts, pts.WithProgress(func(s pts.Snapshot) {
			fmt.Printf("round %3d/%d  best %.4f  elapsed %8.3fs  reports %d (%d forced)",
				s.Round, s.Rounds, s.BestCost, s.Elapsed, s.Reports, s.Forced)
			if len(s.Shares) > 0 {
				fmt.Printf("  shares %v", formatShares(s.Shares))
			}
			fmt.Println()
		}))
	}

	fmt.Printf("running %d TSWs x %d CLWs, %d global x %d local iterations (%s mode, half-sync=%v, adaptive=%v)\n",
		*tsws, *clws, *gIters, *lIters, *mode, *het, *adaptive)

	res, err := pts.Solve(ctx, problem, opts...)
	if err != nil {
		fatal(err)
	}

	if res.Interrupted {
		fmt.Printf("\nrun interrupted after %d rounds; best so far:\n", res.Rounds)
	}
	fmt.Printf("\ninitial cost   %.4f\n", res.InitialCost)
	fmt.Printf("best cost      %.4f  (%.1f%% better)\n", res.BestCost, 100*res.Improvement())
	if d, ok := res.Details.(pts.PlacementDetails); ok {
		fmt.Printf("wirelength     %.0f\n", d.Wirelength)
		fmt.Printf("critical path  %.2f ns\n", d.CriticalPath)
		fmt.Printf("area (row w)   %.0f\n", d.Area)
	}
	if d, ok := res.Details.(pts.QAPDetails); ok {
		fmt.Printf("exact cost     %.0f\n", d.Cost)
	}
	if d, ok := res.Details.(pts.FlowShopDetails); ok {
		printSchedDetails(d.Makespan, d.LowerBound, d.Optimum)
	}
	if d, ok := res.Details.(pts.JobShopDetails); ok {
		printSchedDetails(d.Makespan, d.LowerBound, d.Optimum)
	}
	fmt.Printf("elapsed        %.3f s (%s)\n", res.Elapsed, *mode)
	fmt.Printf("stats          %+v\n", res.Stats)
	fmt.Printf("runtime        %d tasks, %d messages\n", res.Tasks, res.Messages)

	if *trace {
		fmt.Println("\ntime(s)   best cost")
		for _, p := range res.Trace {
			fmt.Printf("%8.3f  %.4f\n", p.Time, p.Cost)
		}
	}
	if *path && placed != nil {
		text, err := placed.CriticalPathText(res.Best)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\ncritical path:")
		fmt.Print(text)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fatal(err)
		}
	}
	if *svgOut != "" && placed != nil {
		if err := writeSVG(*svgOut, placed, res.Best); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}
}

// formatShares renders the adaptive scheduler's share vector compactly.
func formatShares(shares []float64) string {
	out := "["
	for i, s := range shares {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", s)
	}
	return out + "]"
}

// runWorker runs the worker daemon: join the master, host this node's
// share of the search for each job, and print each job's outcome.
// SIGTERM drains gracefully — the worker deregisters from the master
// (fLeave) instead of just vanishing — while Ctrl-C (SIGINT, via ctx)
// stays the hard stop.
func runWorker(ctx context.Context, problem pts.Problem, addr, name string, speed float64, capacity, jobs int) {
	drain := make(chan struct{})
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	go func() {
		select {
		case <-term:
			fmt.Fprintln(os.Stderr, "pts: SIGTERM, draining worker")
			close(drain)
		case <-ctx.Done():
		}
	}()
	node := pts.NodeOptions{
		Name:     name,
		Speed:    speed,
		Capacity: capacity,
		Drain:    drain,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	fmt.Printf("worker joining %s (speed %.2f, capacity %d)\n", addr, speed, capacity)
	err := pts.Worker(ctx, problem, addr, node, jobs, func(res *pts.Result) {
		state := "completed"
		if res.Interrupted {
			state = "interrupted"
		}
		fmt.Printf("job %s: best cost %.4f (%.1f%% better) after %d rounds in %.3fs\n",
			state, res.BestCost, 100*res.Improvement(), res.Rounds, res.Elapsed)
	})
	if err != nil && ctx.Err() == nil {
		fatal(err)
	}
}

// writeSVG renders the best placement's congestion heat map.
func writeSVG(path string, p *pts.PlacementProblem, perm []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteSVG(f, perm); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON dumps the result for downstream tooling.
func writeJSON(path string, res *pts.Result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// loadCircuit resolves the circuit: a named synthetic benchmark or a
// netlist file (text format, or ISCAS-89 .bench by extension).
func loadCircuit(path, name string) (*pts.PlacementProblem, error) {
	if path == "" {
		return pts.PlacementBenchmark(name)
	}
	return pts.PlacementFromFile(path)
}

// loadFlowShop resolves -flowshop: an existing file parses as Taillard
// format, anything else names an embedded benchmark.
func loadFlowShop(s string) (*pts.FlowShopProblem, error) {
	if _, err := os.Stat(s); err == nil {
		return pts.FlowShopFromFile(s)
	}
	return pts.FlowShopBenchmark(s)
}

// loadJobShop resolves -jobshop: an existing file parses as OR-Library
// format, anything else names an embedded benchmark.
func loadJobShop(s string) (*pts.JobShopProblem, error) {
	if _, err := os.Stat(s); err == nil {
		return pts.JobShopFromFile(s)
	}
	return pts.JobShopBenchmark(s)
}

// printSchedDetails renders the exact scoring of a scheduling solution
// with its instance bounds for context.
func printSchedDetails(makespan, lower, optimum int) {
	fmt.Printf("makespan       %d\n", makespan)
	if lower > 0 {
		fmt.Printf("lower bound    %d\n", lower)
	}
	if optimum > 0 {
		fmt.Printf("optimum        %d  (gap %.1f%%)\n", optimum,
			100*float64(makespan-optimum)/float64(optimum))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pts:", err)
	os.Exit(1)
}
