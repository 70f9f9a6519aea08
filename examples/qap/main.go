// QAP walkthrough: the tabu engine is problem-agnostic. This example
// runs it on the quadratic assignment problem — the domain where the
// diversification scheme the paper adopts (Kelly, Laguna, Glover [10])
// was originally studied — and verifies against a brute-force optimum
// on a tiny instance.
//
// Parts 1 and 2 run the smallest configuration of the parallel search,
// one tabu search worker driving one candidate-list worker; part 3 runs
// the full two-level search. All three are the same Solve call the
// placement examples use, proving the solver boundary is
// problem-agnostic.
//
//	go run ./examples/qap
package main

import (
	"context"
	"fmt"
	"log"

	"pts"
)

func main() {
	ctx := context.Background()

	// Part 1: exactness check on a tiny instance.
	tiny := pts.RandomQAP(8, 4)
	opt := tiny.BruteForceOptimum()
	res, err := pts.Solve(ctx, tiny,
		pts.WithWorkers(1, 1),
		pts.WithIterations(10, 50),
		pts.WithTabu(6, 12, 2),
		pts.WithSeed(2),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n=8 instance: brute-force optimum %.1f, tabu search found %.1f\n", opt, res.BestCost)
	if res.BestCost <= opt+1e-9 {
		fmt.Println("=> optimum reached")
	}

	// Part 2: a larger instance, with and without the Kelly-style
	// diversification each worker runs at every global iteration.
	ins := pts.RandomQAP(60, 9)
	run := func(depth int) *pts.Result {
		res, err := pts.Solve(ctx, ins,
			pts.WithWorkers(1, 1),
			pts.WithIterations(10, 150),
			pts.WithTabu(12, 16, 3),
			pts.WithDiversification(depth),
			pts.WithSeed(7),
		)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	plain, div := run(0), run(6)
	fmt.Printf("\nn=60 instance: initial %.0f\n", plain.InitialCost)
	fmt.Printf("  without diversification: %.0f (%.1f%% better)\n", plain.BestCost, 100*plain.Improvement())
	fmt.Printf("  with    diversification: %.0f (%.1f%% better)\n", div.BestCost, 100*div.Improvement())

	// Part 3: the full two-level search on the same instance — the
	// identical Solve call that drives placement.
	res, err = pts.Solve(ctx, ins,
		pts.WithWorkers(4, 2),
		pts.WithIterations(10, 150),
		pts.WithTabu(12, 16, 3),
		pts.WithDiversification(6),
		pts.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nparallel (4 TSWs x 2 CLWs): %.0f (%.1f%% better) in %.2fs virtual time\n",
		res.BestCost, 100*res.Improvement(), res.Elapsed)
	fmt.Printf("exact recheck: %.0f\n", res.Details.(pts.QAPDetails).Cost)
}
