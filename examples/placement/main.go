// Placement walkthrough: the full VLSI flow underneath the parallel
// search — build a circuit, place it, inspect the three objectives and
// the fuzzy cost, improve it with the smallest configuration of the
// parallel search (one tabu search worker driving one candidate-list
// worker), and show the before/after layout.
//
//	go run ./examples/placement
package main

import (
	"context"
	"fmt"
	"log"

	"pts"
	"pts/internal/cost"
)

func main() {
	const seed = 7
	// A small custom circuit so the layout fits on screen.
	prob, err := pts.GeneratePlacement("demo", 48, 9)
	if err != nil {
		log.Fatal(err)
	}

	// The random initial placement a run with this seed starts from, on
	// the problem's auto-sized slot grid. Its fuzzy evaluator derives
	// goals from this initial solution: reach half the initial
	// wirelength, 60% of the weighted delay, 85% of the layout width.
	start, err := prob.Initial(seed)
	if err != nil {
		log.Fatal(err)
	}
	ev := start.(cost.Problem).Ev
	p := ev.Placement()
	fmt.Printf("circuit: %s\n\n", p.Netlist().ComputeStats())

	report := func(tag string) {
		o := ev.Objectives()
		fmt.Printf("%-8s cost=%.4f  wirelength=%-6.0f CPD=%-8.2f width=%.0f\n",
			tag, ev.Cost(), o.Wirelength, ev.CriticalPath(), o.Area)
	}

	fmt.Println("initial layout:")
	fmt.Println(p.ASCII(12))
	report("initial")

	// One tabu search worker driving one candidate-list worker from that
	// initial placement, on the default virtual-time testbed.
	res, err := pts.Solve(context.Background(), prob,
		pts.WithWorkers(1, 1), pts.WithIterations(10, 40), pts.WithSeed(seed))
	if err != nil {
		log.Fatal(err)
	}

	// Adopt the best solution found and rescore it exactly.
	if err := ev.ImportPerm(res.Best); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter %d tabu iterations:\n", res.Stats.LocalIters)
	fmt.Println(p.ASCII(12))
	report("final")
	fmt.Printf("\nsearch stats: %+v\n", res.Stats)

	// The full two-level search on the same circuit: two tabu search
	// workers, each driving two candidate-list workers.
	res, err = pts.Solve(context.Background(), prob,
		pts.WithWorkers(2, 2), pts.WithIterations(6, 40), pts.WithSeed(seed))
	if err != nil {
		log.Fatal(err)
	}
	d := res.Details.(pts.PlacementDetails)
	fmt.Printf("\n2 TSWs x 2 CLWs on the same circuit: cost %.4f -> %.4f, wirelength %.0f, CPD %.2f ns\n",
		res.InitialCost, res.BestCost, d.Wirelength, d.CriticalPath)
}
