// Walkthrough of budget tuning: the paper's Figure 10 question —
// given a fixed iteration budget, how should it be split between global
// iterations (more diversification) and local iterations (more local
// investigation)? The answer is instance-dependent; this example makes
// the trade-off visible on two circuits, entirely through the public
// API.
//
//	go run ./examples/tuning
package main

import (
	"context"
	"fmt"
	"log"

	"pts"
)

func main() {
	solver := pts.NewSolver(
		pts.WithWorkers(4, 1),
		pts.WithCluster(pts.Testbed12(12)),
		pts.WithSeed(11),
	)
	const budget = 320 // total local iterations per TSW across the run

	splits := [][2]int{{32, 10}, {16, 20}, {8, 40}, {4, 80}, {2, 160}}

	for _, name := range []string{"highway", "c532"} {
		p, err := pts.PlacementBenchmark(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%d cells), budget G*L = %d:\n", name, p.Cells(), budget)
		fmt.Printf("  %-10s %-10s %-12s %-12s\n", "global G", "local L", "best cost", "virtual time")
		bestCost, bestSplit := 2.0, [2]int{}
		for _, gl := range splits {
			res, err := solver.Solve(context.Background(), p,
				pts.WithIterations(gl[0], gl[1]))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-10d %-10d %-12.4f %-12.3f\n",
				gl[0], gl[1], res.BestCost, res.Elapsed)
			if res.BestCost < bestCost {
				bestCost, bestSplit = res.BestCost, gl
			}
		}
		fmt.Printf("  -> best split here: G=%d, L=%d (cost %.4f)\n\n",
			bestSplit[0], bestSplit[1], bestCost)
	}
	fmt.Println("As in the paper, no single split wins everywhere: pick per instance.")
}
