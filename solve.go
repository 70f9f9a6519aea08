package pts

import (
	"context"
	"fmt"

	"pts/internal/core"
)

// Result is the outcome of one Solve call.
type Result struct {
	// Problem is the solved problem's Name().
	Problem string
	// BestCost is the best cost found (lower is better).
	BestCost float64
	// Best is the best solution found, as an element permutation.
	Best []int32
	// InitialCost is the cost of the shared initial solution every
	// worker started from.
	InitialCost float64
	// Elapsed is the run's make-span in seconds: modeled cluster time
	// under WithVirtualTime, wall-clock under WithRealTime.
	Elapsed float64
	// Rounds is the number of completed global iterations.
	Rounds int
	// Interrupted reports that the context was cancelled and the result
	// is the best found up to that point, not the full budget's.
	Interrupted bool
	// Trace is the best-cost-versus-time curve: the initial point plus
	// every incumbent improvement, when tracing is on (the default).
	Trace []TracePoint
	// Stats aggregates every worker's search counters.
	Stats WorkerStats
	// Tasks and Messages report the run's process and communication
	// volume on the PVM-like substrate.
	Tasks    int64
	Messages int64
	// Details carries problem-specific exact scoring of Best when the
	// problem implements Detailer: PlacementDetails for placement,
	// QAPDetails for QAP, nil otherwise.
	Details any
}

// Improvement returns the relative cost improvement over the initial
// solution, in [0, 1].
func (r *Result) Improvement() float64 {
	if r.InitialCost == 0 {
		return 0
	}
	return (r.InitialCost - r.BestCost) / r.InitialCost
}

// TracePoint is one observation of the incumbent best cost.
type TracePoint struct {
	// Time is seconds since the run started (virtual or wall).
	Time float64
	// Cost is the best cost known at Time.
	Cost float64
}

// WorkerStats counts search events across all workers of a run.
type WorkerStats struct {
	// LocalIters is the number of tabu iterations performed.
	LocalIters int64
	// CandidatesBuilt is the number of compound moves constructed.
	CandidatesBuilt int64
	// TrialsCharged is the number of trial swap evaluations.
	TrialsCharged int64
	// MovesAccepted is the number of compound moves applied.
	MovesAccepted int64
	// TabuRejected is the number of moves rejected by the tabu list.
	TabuRejected int64
	// Aspirations is the number of tabu moves accepted by aspiration.
	Aspirations int64
	// Fallbacks is the number of iterations where every candidate was
	// tabu and none aspirated.
	Fallbacks int64
	// ForcedReports is the number of half-sync forced early reports.
	ForcedReports int64
	// Diversifications is the number of diversification phases run.
	Diversifications int64
	// Rebalances is the number of adaptive range re-partitions adopted
	// by workers (0 unless WithAdaptive is on).
	Rebalances int64
	// WorkersLost is the number of workers (candidate-list workers and
	// tabu search workers) written off after their hosting process died
	// mid-run (adaptive distributed runs only; a static run aborts
	// instead).
	WorkersLost int64
	// WorkersRespawned is the number of replacement workers spawned
	// onto surviving capacity to take over for lost ones: CLW
	// replacements re-seeded from their TSW's current solution, plus
	// TSWs resurrected from their piggybacked checkpoints. Equal to
	// WorkersLost when every loss was recovered (see WithRespawn).
	WorkersRespawned int64
}

// newWorkerStats mirrors the engine's counters into the public type.
func newWorkerStats(ws core.WorkerStats) WorkerStats {
	return WorkerStats{
		LocalIters:       ws.LocalIters,
		CandidatesBuilt:  ws.CandidatesBuilt,
		TrialsCharged:    ws.TrialsCharged,
		MovesAccepted:    ws.MovesAccepted,
		TabuRejected:     ws.TabuRejected,
		Aspirations:      ws.Aspirations,
		Fallbacks:        ws.Fallbacks,
		ForcedReports:    ws.ForcedReports,
		Diversifications: ws.Diversifications,
		Rebalances:       ws.Rebalances,
		WorkersLost:      ws.WorkersLost,
		WorkersRespawned: ws.WorkersRespawned,
	}
}

// Snapshot is one per-global-iteration progress observation streamed to
// a WithProgress callback.
type Snapshot struct {
	// Round is the 1-based index of the just-completed global
	// iteration; Rounds is the total planned.
	Round  int
	Rounds int
	// BestCost is the global best cost after this round; InitialCost
	// the shared starting point.
	BestCost    float64
	InitialCost float64
	// Elapsed is seconds since the run started (virtual or wall).
	Elapsed float64
	// Improved reports whether this round improved the global best.
	Improved bool
	// Reports is the number of worker reports collected this round;
	// Forced is how many of them the half-sync adaptation forced early.
	Reports int
	Forced  int
	// Stats aggregates the search counters reported so far.
	Stats WorkerStats
	// Shares is the adaptive scheduler's current element-space share
	// per tabu search worker (summing to 1 over live workers); nil
	// unless WithAdaptive is on.
	Shares []float64
}

// newSnapshot mirrors the engine's snapshot into the public type.
func newSnapshot(cs core.Snapshot) Snapshot {
	return Snapshot{
		Round:       cs.Round,
		Rounds:      cs.Rounds,
		BestCost:    cs.BestCost,
		InitialCost: cs.InitialCost,
		Elapsed:     cs.Elapsed,
		Improved:    cs.Improved,
		Reports:     cs.Reports,
		Forced:      cs.Forced,
		Stats:       newWorkerStats(cs.Stats),
		Shares:      cs.Shares,
	}
}

// Solver runs the parallel tabu search with a reusable base
// configuration. The zero value is ready to use and equals the paper's
// defaults; NewSolver captures base options applied before each call's
// own.
type Solver struct {
	base []Option
}

// NewSolver returns a Solver whose base options are applied to every
// Solve call, before the call's own options.
func NewSolver(opts ...Option) *Solver {
	return &Solver{base: opts}
}

// Solve executes the two-level parallel tabu search over p: a master
// coordinates TSW workers (multi-search threads) that each drive CLW
// candidate-list workers, with the paper's half-sync heterogeneity
// adaptation at both levels.
//
// ctx bounds the run: when it is cancelled or its deadline passes,
// workers abandon their loops at the next boundary and Solve returns
// promptly with the best solution found so far, Result.Interrupted set,
// and a nil error. A nil result is only ever paired with a non-nil
// error (invalid configuration or a problem that failed to initialize).
//
// Virtual-time runs (the default) are deterministic in WithSeed as long
// as ctx does not fire mid-run.
func (s *Solver) Solve(ctx context.Context, p Problem, opts ...Option) (*Result, error) {
	all := make([]Option, 0, len(s.base)+len(opts))
	all = append(all, s.base...)
	all = append(all, opts...)
	st := apply(all)

	// A master's run spans OS processes, which only wall-clock time can.
	if st.cfg.Transport != nil {
		if st.modeSet && st.mode == core.Virtual {
			return nil, fmt.Errorf("pts: WithMaster requires real time; drop WithVirtualTime")
		}
		st.mode = core.Real
	}

	res, err := core.RunProblem(ctx, adapt(p), st.clus, st.cfg, st.mode)
	if err != nil {
		return nil, err
	}
	return resultFromCore(res), nil
}

// resultFromCore mirrors the engine's result into the public type.
func resultFromCore(res *core.Result) *Result {
	out := &Result{
		Problem:     res.Problem,
		BestCost:    res.BestCost,
		Best:        res.BestPerm,
		InitialCost: res.InitialCost,
		Elapsed:     res.Elapsed,
		Rounds:      res.Rounds,
		Interrupted: res.Interrupted,
		Stats:       newWorkerStats(res.Stats),
		Tasks:       res.Runtime.Spawns,
		Messages:    res.Runtime.Sends,
		Details:     res.Details,
	}
	if n := res.Trace.Len(); n > 0 {
		out.Trace = make([]TracePoint, n)
		for i, pt := range res.Trace.Points {
			out.Trace[i] = TracePoint{Time: pt.Time, Cost: pt.Cost}
		}
	}
	return out
}

// Solve executes the parallel tabu search over p with a one-off
// configuration — shorthand for NewSolver().Solve(ctx, p, opts...).
func Solve(ctx context.Context, p Problem, opts ...Option) (*Result, error) {
	return NewSolver().Solve(ctx, p, opts...)
}
