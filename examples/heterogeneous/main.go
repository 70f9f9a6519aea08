// Heterogeneous-vs-homogeneous walkthrough: the paper's §4.2/§5.4
// claim, reproduced head to head through the public API — the half-sync
// collection scheme reaches the same quality in substantially less
// runtime on a cluster with mixed machine speeds and background load.
//
//	go run ./examples/heterogeneous
//
// After the simulated comparison, the example leaves the single address
// space: it re-launches itself as three worker processes of mixed
// declared speeds (the paper's fast/medium/slow classes) and runs the
// same search distributed over loopback TCP, master plus workers.
// Skip that half with -distributed=false.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"

	"pts"
)

func main() {
	distributed := flag.Bool("distributed", true, "follow up with the multi-process TCP run")
	workerOf := flag.String("as-worker-of", "", "internal: run as a worker process joining this master")
	workerSpeed := flag.Float64("worker-speed", 1.0, "internal: declared speed of the worker process")
	flag.Parse()
	if *workerOf != "" {
		runAsWorker(*workerOf, *workerSpeed)
		return
	}
	virtualComparison()
	if *distributed {
		distributedRun()
	}
}

func virtualComparison() {
	p, err := pts.PlacementBenchmark("c532")
	if err != nil {
		log.Fatal(err)
	}
	clus := pts.Testbed12(12) // 7 fast / 3 medium / 2 slow, loaded

	fmt.Println("machines:")
	for i, m := range clus.Machines() {
		load := "idle"
		if m.Loaded {
			load = fmt.Sprintf("loaded (period %.2fs)", m.LoadPeriod)
		}
		fmt.Printf("  %2d %-8s speed %.2f  %s\n", i, m.Name, m.Speed, load)
	}

	run := func(half bool) *pts.Result {
		res, err := pts.Solve(context.Background(), p,
			pts.WithWorkers(4, 4),
			pts.WithIterations(10, 30),
			pts.WithHalfSync(half),
			pts.WithCluster(clus),
			pts.WithSeed(3),
		)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("\nidentical search, two collection strategies:")
	het := run(true)
	hom := run(false)

	fmt.Printf("\n%-14s %12s %14s %14s\n", "mode", "best cost", "virtual time", "forced reports")
	fmt.Printf("%-14s %12.4f %13.3fs %14d\n", "heterogeneous", het.BestCost, het.Elapsed, het.Stats.ForcedReports)
	fmt.Printf("%-14s %12.4f %13.3fs %14d\n", "homogeneous", hom.BestCost, hom.Elapsed, hom.Stats.ForcedReports)
	fmt.Printf("\nhalf-sync finishes %.2fx sooner at %+.1f%% cost difference\n",
		hom.Elapsed/het.Elapsed, 100*(het.BestCost-hom.BestCost)/hom.BestCost)

	fmt.Println("\nbest-cost traces (time -> cost):")
	fmt.Printf("%-8s %-22s %-22s\n", "round", "heterogeneous", "homogeneous")
	n := len(het.Trace)
	if len(hom.Trace) < n {
		n = len(hom.Trace)
	}
	for i := 0; i < n; i++ {
		hp, op := het.Trace[i], hom.Trace[i]
		fmt.Printf("%-8d %8.3fs -> %-8.4f %8.3fs -> %-8.4f\n", i, hp.Time, hp.Cost, op.Time, op.Cost)
	}
}

// exampleProblem is the circuit every process of the distributed run
// builds locally — SPMD style, only protocol messages cross the wire.
func exampleProblem() pts.Problem {
	p, err := pts.PlacementBenchmark("c532")
	if err != nil {
		log.Fatal(err)
	}
	return p
}

// distributedRun leaves the simulation: one master (this process) plus
// three re-executed worker processes with the paper's speed classes,
// exchanging the same TSW/CLW protocol over loopback TCP.
func distributedRun() {
	fmt.Println("\n--- distributed: the same search across real processes ---")
	exe, err := os.Executable()
	if err != nil {
		log.Fatalf("cannot re-exec for worker processes: %v", err)
	}

	master, err := pts.ListenMaster("127.0.0.1:0", 3)
	if err != nil {
		log.Fatal(err)
	}
	defer master.Close()
	fmt.Printf("master listening on %s\n", master.Addr())

	speeds := []float64{1.0, 0.55, 0.3} // one node per paper speed class
	var workers []*exec.Cmd
	for i, sp := range speeds {
		cmd := exec.Command(exe,
			"-as-worker-of", master.Addr(),
			"-worker-speed", fmt.Sprint(sp))
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("worker %d: %v", i, err)
		}
		fmt.Printf("launched worker pid %d (speed %.2f)\n", cmd.Process.Pid, sp)
		workers = append(workers, cmd)
	}

	res, err := pts.Solve(context.Background(), exampleProblem(),
		pts.WithWorkers(4, 2),
		pts.WithIterations(6, 30),
		pts.WithSeed(3),
		pts.WithMaster(master),
		// A touch of speed emulation so the declared factors matter: fast
		// nodes really do answer sooner, and half-sync forces the slow one.
		pts.WithWorkScale(1e-3),
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range workers {
		if err := w.Wait(); err != nil {
			log.Printf("worker pid %d: %v", w.Process.Pid, err)
		}
	}
	fmt.Printf("\ndistributed best cost %.4f (%.1f%% better) in %.3fs wall\n",
		res.BestCost, 100*res.Improvement(), res.Elapsed)
	fmt.Printf("%d tasks across 4 processes, %d protocol messages, %d forced reports\n",
		res.Tasks, res.Messages, res.Stats.ForcedReports)
}

// runAsWorker is the re-executed child: build the same problem, join
// the master, host tasks for one job.
func runAsWorker(addr string, speed float64) {
	err := pts.Worker(context.Background(), exampleProblem(), addr,
		pts.NodeOptions{Speed: speed}, 1, func(res *pts.Result) {
			fmt.Printf("worker pid %d done: best %.4f\n", os.Getpid(), res.BestCost)
		})
	if err != nil {
		log.Fatal(err)
	}
}
