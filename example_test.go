package pts_test

import (
	"context"
	"fmt"
	"log"
	"math"

	"pts"
)

// The basic flow: pick a Problem, call Solve, read the Result.
// Virtual time (the default) makes the run deterministic in the seed,
// so this example's output is stable.
func ExampleSolve() {
	p, err := pts.PlacementBenchmark("highway")
	if err != nil {
		log.Fatal(err)
	}
	res, err := pts.Solve(context.Background(), p,
		pts.WithWorkers(2, 1),     // 2 TSWs x 1 CLW
		pts.WithIterations(4, 20), // 4 global rounds x 20 local iterations
		pts.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("problem: %s\n", res.Problem)
	fmt.Printf("rounds: %d\n", res.Rounds)
	fmt.Printf("improved over initial: %v\n", res.BestCost < res.InitialCost)
	fmt.Printf("interrupted: %v\n", res.Interrupted)
	// Output:
	// problem: highway
	// rounds: 4
	// improved over initial: true
	// interrupted: false
}

// Any type implementing Problem runs through the same engine. The
// built-in QAP workload shows the problem-agnostic path, including the
// per-problem Details: an exact from-scratch recheck of the best cost.
func ExampleSolve_qap() {
	q := pts.RandomQAP(16, 3) // 16 facilities, deterministic in the seed
	res, err := pts.Solve(context.Background(), q,
		pts.WithWorkers(2, 1),
		pts.WithIterations(3, 15),
		pts.WithTabu(8, 10, 3),
		pts.WithSeed(5),
	)
	if err != nil {
		log.Fatal(err)
	}
	d := res.Details.(pts.QAPDetails)
	fmt.Printf("problem: %s\n", res.Problem)
	// Details.Cost is the exact from-scratch recheck; the incremental
	// cost the search tracked agrees to floating-point noise.
	fmt.Printf("exact recheck matches: %v\n", math.Abs(d.Cost-res.BestCost) < 1e-6*d.Cost)
	fmt.Printf("improvement > 10%%: %v\n", res.Improvement() > 0.10)
	// Output:
	// problem: qap16
	// exact recheck matches: true
	// improvement > 10%: true
}

// WithProgress streams one Snapshot per completed global iteration
// while the run is in flight — the hook for live dashboards, early
// stopping (cancel the context from the callback), or logging.
func ExampleWithProgress() {
	p, err := pts.PlacementBenchmark("highway")
	if err != nil {
		log.Fatal(err)
	}
	rounds := 0
	monotone := true
	last := 0.0
	_, err = pts.Solve(context.Background(), p,
		pts.WithWorkers(2, 1),
		pts.WithIterations(5, 15),
		pts.WithSeed(1),
		pts.WithProgress(func(s pts.Snapshot) {
			if rounds > 0 && s.BestCost > last {
				monotone = false
			}
			rounds, last = s.Round, s.BestCost
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshots: %d\n", rounds)
	fmt.Printf("best cost is monotone: %v\n", monotone)
	// Output:
	// snapshots: 5
	// best cost is monotone: true
}

// ExampleListenMaster runs a genuinely distributed solve on loopback
// TCP: this process is the master, a second "process" (a goroutine
// here; normally another machine) joins as a worker and hosts its
// share of the search. With half-sync off, the fixed-seed distributed
// result is identical to the single-process one, so the output is
// stable even though the run crosses real sockets.
func ExampleListenMaster() {
	newProblem := func() pts.Problem { return pts.RandomQAP(20, 9) }

	master, err := pts.ListenMaster("127.0.0.1:0", 1) // any free port, wait for 1 worker
	if err != nil {
		log.Fatal(err)
	}
	defer master.Close()

	// The worker side: same problem inputs, one job. In production this
	// is `pts -worker <addr>` or pts.Worker on another machine.
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- pts.Worker(context.Background(), newProblem(), master.Addr(),
			pts.NodeOptions{Name: "node0", Speed: 1}, 1, nil)
	}()

	res, err := pts.Solve(context.Background(), newProblem(),
		pts.WithWorkers(2, 1),
		pts.WithIterations(3, 10),
		pts.WithSeed(7),
		pts.WithHalfSync(false),
		pts.WithMaster(master),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		log.Fatal(err)
	}

	single, err := pts.Solve(context.Background(), newProblem(),
		pts.WithWorkers(2, 1),
		pts.WithIterations(3, 10),
		pts.WithSeed(7),
		pts.WithHalfSync(false),
		pts.WithRealTime(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed run completed %d rounds\n", res.Rounds)
	fmt.Printf("matches single-process result: %v\n", res.BestCost == single.BestCost)
	// Output:
	// distributed run completed 3 rounds
	// matches single-process result: true
}
