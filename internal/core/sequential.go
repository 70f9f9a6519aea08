package core

import (
	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/placement"
	"pts/internal/rng"
	"pts/internal/stats"
	"pts/internal/tabu"
)

// RunSequential executes a plain single-threaded tabu search with the
// same problem setup and parameters as Run — the "no parallelization"
// baseline every speedup is ultimately judged against. Virtual time is
// charged analytically on one reference machine: no workers, no
// messages, no synchronization cost.
//
// Iteration budget: GlobalIters rounds of LocalIters iterations, with
// the same diversification at each round boundary (restricted to the
// whole cell space, since there is only one searcher).
func RunSequential(nl *netlist.Netlist, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p0, err := placement.New(nl, placement.AutoLayout(nl, cfg.Utilization))
	if err != nil {
		return nil, err
	}
	p0.Randomize(rng.New(rng.Derive(cfg.Seed, "core.initial", nl.Name)))
	ev, err := cost.NewEvaluator(p0, cfg.Cost)
	if err != nil {
		return nil, err
	}
	initCost := ev.Cost()
	prob := cost.Problem{Ev: ev}
	s := tabu.NewSearch(prob, tabu.Params{
		Tenure:       cfg.Tenure,
		Trials:       cfg.Trials,
		Depth:        cfg.Depth,
		RefreshEvery: cfg.RefreshEvery,
		Seed:         rng.Derive(cfg.Seed, "core.sequential"),
	})

	// Analytic virtual clock: the same work model the parallel runtime
	// charges, on one idle speed-1.0 machine.
	now := 0.0
	iterWork := float64(cfg.Trials*cfg.Depth) * cfg.WorkPerTrial
	divWork := float64(cfg.DiversifyDepth*cfg.Trials) * cfg.WorkPerTrial
	staWork := workSTA(cfg, int32(nl.NumCells()))

	var trace stats.Trace
	trace.Record(0, initCost)
	best := initCost
	note := func() {
		if s.BestCost() < best {
			best = s.BestCost()
			trace.Record(now, best)
		}
	}
	var st WorkerStats
	for g := 0; g < cfg.GlobalIters; g++ {
		if cfg.DiversifyDepth > 0 {
			s.Diversify(cfg.DiversifyDepth, 0, prob.Size())
			now += divWork + staWork
			st.Diversifications++
			note()
		}
		for l := 0; l < cfg.LocalIters; l++ {
			s.Step()
			now += iterWork
			st.LocalIters++
			note()
		}
	}
	trace.Record(now, best)

	st.MovesAccepted = s.Stats.Accepted
	st.TabuRejected = s.Stats.TabuRejected
	st.Aspirations = s.Stats.Aspirations
	st.CandidatesBuilt = s.Stats.Steps
	st.TrialsCharged = s.Stats.Steps * int64(cfg.Trials*cfg.Depth)

	if err := ev.ImportPerm(s.BestSnapshot()); err != nil {
		return nil, err
	}
	return &Result{
		BestCost:     s.BestCost(),
		BestPerm:     s.BestSnapshot(),
		Objectives:   ev.Objectives(),
		CriticalPath: ev.CriticalPath(),
		InitialCost:  initCost,
		Elapsed:      now,
		Rounds:       cfg.GlobalIters,
		Trace:        trace,
		Stats:        st,
	}, nil
}
