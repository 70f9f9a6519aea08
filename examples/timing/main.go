// Timing walkthrough: the static timing analysis underneath the delay
// objective — arrival times, the critical path as a cell sequence, net
// criticalities, and how optimizing the placement shortens the path,
// first with one tabu search worker driving one candidate-list worker,
// then with the full two-level parallel search.
//
//	go run ./examples/timing
package main

import (
	"context"
	"fmt"
	"log"

	"pts"
	"pts/internal/cost"
	"pts/internal/timing"
)

func main() {
	const seed = 5
	prob, err := pts.PlacementBenchmark("c532")
	if err != nil {
		log.Fatal(err)
	}
	// The random initial placement a run with this seed starts from.
	start, err := prob.Initial(seed)
	if err != nil {
		log.Fatal(err)
	}
	ev := start.(cost.Problem).Ev
	p := ev.Placement()
	nl := p.Netlist()

	an := timing.New(nl, timing.DefaultConfig())
	cpd := an.Analyze(p)
	fmt.Printf("random placement of %s: critical path %.3f ns\n\n", nl.Name, cpd)

	fmt.Println("critical path (driver -> ... -> endpoint):")
	path := an.CriticalPathCells(p)
	fmt.Print(timing.FormatPath(nl, path))

	// Criticality distribution: most nets are far off the critical
	// path; the timing-driven part of the cost focuses on the rest.
	crit := an.Criticalities()
	buckets := make([]int, 5)
	for _, c := range crit {
		idx := int(c * 4.9999)
		buckets[idx]++
	}
	fmt.Println("\nnet criticality distribution:")
	labels := []string{"0.0-0.2", "0.2-0.4", "0.4-0.6", "0.6-0.8", "0.8-1.0"}
	for i, b := range buckets {
		fmt.Printf("  %s  %4d nets\n", labels[i], b)
	}

	// Optimize with one tabu search worker driving one candidate-list
	// worker from that placement, then re-analyze the best layout.
	res, err := pts.Solve(context.Background(), prob,
		pts.WithWorkers(1, 1), pts.WithIterations(15, 100), pts.WithSeed(seed))
	if err != nil {
		log.Fatal(err)
	}
	if err := ev.ImportPerm(res.Best); err != nil {
		log.Fatal(err)
	}
	after := an.Analyze(p)
	fmt.Printf("\nafter %d tabu iterations: critical path %.3f ns (%.1f%% shorter)\n",
		res.Stats.LocalIters, after, 100*(cpd-after)/cpd)
	fmt.Println("\nnew critical path:")
	fmt.Print(timing.FormatPath(nl, an.CriticalPathCells(p)))

	// The same inspection through the public API alone: solve with four
	// tabu search workers of two candidate-list workers each, then ask
	// the problem for the best layout's critical path.
	res, err = pts.Solve(context.Background(), prob,
		pts.WithWorkers(4, 2), pts.WithIterations(6, 40), pts.WithSeed(seed))
	if err != nil {
		log.Fatal(err)
	}
	text, err := prob.CriticalPathText(res.Best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nparallel search: CPD %.3f ns; its critical path:\n",
		res.Details.(pts.PlacementDetails).CriticalPath)
	fmt.Print(text)
}
