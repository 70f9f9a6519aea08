package core

import (
	"fmt"

	"pts/internal/pvm"
	"pts/internal/rng"
	"pts/internal/tabu"
)

// clwRun is the candidate-list worker body (paper Fig. 4). It owns a
// private copy of the solution, kept in lockstep with its parent TSW via
// TagSync/TagNewState, and produces one compound move per TagSearch.
// The first element of every trial swap comes from the worker's range —
// the probabilistic domain decomposition of §4.1 — and the second from
// the whole element space.
//
// The parent is the sender of its one TagInit: the TSW that spawned
// the CLW, or for a replacement the TSW that requested it. A TagStop
// arriving before any TagInit retires a replacement that was never
// seeded — it exits without a stats report, since no parent ever
// accounted for it. A CLW whose TSW died is stopped by the master; its
// stats report goes to the dead parent, and the transport drops it.
//
// The worker's random stream is whatever its parent last dealt it:
// the Reseed of a TagInit or TagNewState. Every round's search starts
// after a barrier reseed, so each stream is a pure function of the
// parent TSW's checkpointed state (see tswRun).
func clwRun(env pvm.Env, problem Problem, cfg Config) {
	first := env.Recv(TagInit, TagStop)
	if first.Tag == TagStop {
		return
	}
	init := first.Data.(initMsg)
	parent := first.From
	prob := mustState(env, problem, init.Perm)
	r := rng.NewSplitMix64(init.Reseed)
	params := tabu.CompoundParams{
		Trials:  cfg.Trials,
		Depth:   cfg.Depth,
		RangeLo: init.RangeLo,
		RangeHi: init.RangeHi,
	}
	if init.Trials > 0 {
		// Adaptive scheduling: the per-step trial budget scales with
		// this worker's range share instead of the configured constant.
		params.Trials = init.Trials
	}
	stepWork := float64(params.Trials) * cfg.WorkPerTrial
	staWork := workSTA(cfg, prob.Size())

	var stats WorkerStats
	var tentative tabu.CompoundMove // applied locally, awaiting TagSync
	var batch tabu.BatchScratch     // candidate-batch buffers reused across TagSearches

	for {
		m := env.Recv(clwLoopTags...)
		switch m.Tag {
		case TagSearch:
			forced := false
			move := tabu.BuildCompoundBatch(prob, r, params, &batch, func() bool {
				env.Work(stepWork)
				stats.TrialsCharged += int64(params.Trials)
				if _, ok := env.TryRecv(reportNowTags...); ok {
					forced = true
					return true
				}
				return env.Cancelled()
			})
			tentative = move
			stats.CandidatesBuilt++
			if forced {
				stats.ForcedReports++
			}
			env.Send(parent, TagCandidate, candMsg{
				Move: move, Forced: forced,
				CumTrials: stats.TrialsCharged, At: env.Now(),
			})

		case TagRebalance:
			// Only ever arrives at the resync barrier (followed by the
			// TagNewState carrying the synchronized solution), so no
			// candidate built against the old range is in flight.
			rb := m.Data.(rebalanceMsg)
			params.RangeLo, params.RangeHi = rb.RangeLo, rb.RangeHi
			if rb.Trials > 0 {
				params.Trials = rb.Trials
				stepWork = float64(params.Trials) * cfg.WorkPerTrial
			}

		case TagSync:
			chosen := m.Data.(syncMsg).Chosen
			if !tentative.SameSwaps(&chosen) {
				// Another worker's move won: trade ours for it. When ours
				// won, the state is already where the TSW's is.
				tentative.Undo(prob)
				chosen.Apply(prob)
			}
			tentative = tabu.CompoundMove{}
			env.Work(float64(len(chosen.Swaps)) * cfg.WorkPerTrial)

		case TagNewState:
			sm := m.Data.(stateMsg)
			if err := prob.Restore(sm.Perm); err != nil {
				panic(fmt.Sprintf("core: clw %s: %v", env.Name(), err))
			}
			r.Seed(int64(sm.Reseed))
			tentative = tabu.CompoundMove{}
			env.Work(staWork)

		case TagReportNow:
			// Stale force (our candidate was already in flight): ignore.

		case TagStop:
			env.Send(parent, TagStats, stats)
			return
		}
	}
}

// mustState builds a worker state over an imported solution; failures
// here are protocol bugs, not input errors.
func mustState(env pvm.Env, problem Problem, perm []int32) State {
	st, err := problem.NewState(perm)
	if err != nil {
		panic(fmt.Sprintf("core: %s: state: %v", env.Name(), err))
	}
	return st
}
