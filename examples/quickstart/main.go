// Quickstart: run the parallel tabu search on one of the paper's
// circuits through the public API, watch it converge, and print what it
// achieved.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"pts"
)

func main() {
	// One of the paper's four circuits (a synthetic stand-in with the
	// same size and connectivity statistics; the paper's netlists were
	// never published).
	p, err := pts.PlacementBenchmark("c532")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %s\n\n", p.Name(), p.Describe())

	// 4 tabu search workers, 2 candidate-list workers each, on the
	// paper's 12 heterogeneous workstations (7 fast, 3 medium, 2 slow,
	// with background load) — all defaults except the CLW count. The
	// progress callback streams one line per master synchronization.
	res, err := pts.Solve(context.Background(), p,
		pts.WithWorkers(4, 2),
		pts.WithProgress(func(s pts.Snapshot) {
			fmt.Printf("  round %2d/%d  best %.4f  t=%.3fs\n",
				s.Round, s.Rounds, s.BestCost, s.Elapsed)
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	d := res.Details.(pts.PlacementDetails)
	fmt.Printf("\ninitial cost   %.4f\n", res.InitialCost)
	fmt.Printf("best cost      %.4f (%.1f%% better)\n", res.BestCost, 100*res.Improvement())
	fmt.Printf("wirelength     %.0f slot units\n", d.Wirelength)
	fmt.Printf("critical path  %.2f ns\n", d.CriticalPath)
	fmt.Printf("layout width   %.0f units (widest row)\n", d.Area)
	fmt.Printf("virtual time   %.3f s on the 12-machine testbed\n", res.Elapsed)
}
