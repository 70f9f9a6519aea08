package core

import (
	"context"
	"errors"
	"fmt"

	"pts/internal/cluster"
	"pts/internal/pvm"
	"pts/internal/stats"
)

// Mode selects the execution runtime.
type Mode int

const (
	// Virtual runs on the deterministic discrete-event kernel with
	// modeled machine speeds, loads and message latencies. All
	// experiment figures use it.
	Virtual Mode = iota
	// Real runs on goroutines with wall-clock timing.
	Real
)

// Result is the outcome of one parallel tabu search run.
type Result struct {
	// Problem is the solved problem's Name().
	Problem string
	// BestCost is the best cost found (lower is better).
	BestCost float64
	// BestPerm is the best solution as an element permutation.
	BestPerm []int32
	// InitialCost is the cost of the shared initial solution.
	InitialCost float64
	// Elapsed is the run's make-span in seconds (virtual or wall).
	Elapsed float64
	// Rounds is the number of completed global iterations.
	Rounds int
	// Interrupted reports that the run's context was cancelled and the
	// result is the best found up to that point rather than the full
	// iteration budget's.
	Interrupted bool
	// Trace is the best-cost-versus-time curve (one point per global
	// iteration, plus the initial point) when Config.RecordTrace is set.
	Trace stats.Trace
	// Stats aggregates every worker's counters.
	Stats WorkerStats
	// Runtime reports the communication volume of the run.
	Runtime pvm.Counters
	// Details carries problem-specific exact scoring of BestPerm when
	// the problem implements Finalizer; nil otherwise.
	Details any
}

// RunProblem executes the parallel tabu search over any Problem on the
// given cluster. The returned result is deterministic in cfg.Seed when
// mode is Virtual and ctx never fires mid-run.
//
// Cancellation is cooperative: when ctx is cancelled, workers abandon
// their local iterations at the next loop boundary, the master stops
// launching rounds, and the best solution found so far is returned with
// Result.Interrupted set and a nil error.
func RunProblem(ctx context.Context, prob Problem, clus cluster.Cluster, cfg Config, mode Mode) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := clus.Validate(); err != nil {
		return nil, err
	}

	// Shared initial solution, derived once so every worker searches
	// from the same point (paper: the master provides each TSW with the
	// same initial solution).
	st0, err := prob.Initial(cfg.Seed)
	if err != nil {
		return nil, err
	}
	initPerm := st0.Snapshot()
	initCost := st0.Cost()

	res := &Result{
		Problem:     prob.Name(),
		BestCost:    initCost,
		BestPerm:    initPerm,
		InitialCost: initCost,
	}
	if ctx.Err() != nil {
		// Pre-cancelled context: the best-so-far is the initial solution.
		res.Interrupted = true
		return finalize(prob, res)
	}

	// Store-backed runs: a snapshot left behind by a dead master resumes
	// the run where it stopped. A snapshot whose fingerprint (problem,
	// size, seed) does not match this run's inputs is stale state from a
	// different run under the same RunID — ignored, then overwritten by
	// the first barrier of the fresh run.
	snap := loadSnapshot(prob, cfg)

	var ms masterState
	root := func(env pvm.Env) {
		masterRun(env, prob, cfg, initPerm, initCost, snap, &ms)
	}
	var counters pvm.Counters
	opts := pvm.Options{
		Context:       ctx,
		Cluster:       clus,
		Seed:          cfg.Seed,
		Counters:      &counters,
		RealWorkScale: cfg.WorkScale,
		// Adaptive runs absorb late-joining workers as spare capacity;
		// in-process transports ignore the flag.
		Elastic: cfg.Adaptive,
	}
	if mode == Real && cfg.Transport != nil {
		opts.Transport = cfg.Transport
		opts.JobPayload = newJobPayload(prob, cfg, initCost)
		opts.Spawner = taskFactory(prob, cfg)
	}
	// Whatever happens from here on, a remote-capable transport must
	// release its worker processes: on success Finish carries the final
	// summary, on any error path it carries nil and just closes the
	// session, so joined daemons never wait forever for a result.
	var summary any
	if f, ok := cfg.Transport.(pvm.Finisher); ok && mode == Real {
		defer func() {
			_ = f.Finish(summary) // failures are the workers' daemons to recover from
		}()
	}

	var elapsed float64
	switch mode {
	case Virtual:
		elapsed, err = pvm.RunVirtual(opts, root)
	case Real:
		elapsed, err = pvm.RunReal(opts, root)
	default:
		return nil, fmt.Errorf("core: unknown mode %d", mode)
	}
	// A transport abort (a worker process died or refused the job
	// mid-run) is not a failed solve: the master state accumulated up to
	// the abort is intact, so report the best-so-far as an interrupted
	// run — exactly like cooperative cancellation.
	aborted := errors.Is(err, pvm.ErrAborted)
	if err != nil && !aborted {
		return nil, err
	}

	if ms.bestPerm != nil { // nil only when an abort beat the master's first step
		res.BestCost = ms.bestCost
		res.BestPerm = ms.bestPerm
	}
	res.Elapsed = elapsed
	res.Rounds = ms.rounds
	res.Interrupted = ms.interrupted || aborted
	res.Trace = ms.trace
	res.Stats = ms.stats
	res.Runtime = counters
	res, err = finalize(prob, res)
	if err != nil {
		return nil, err
	}
	if cfg.Store != nil && !res.Interrupted {
		// Clean completion: the run no longer needs its snapshot. An
		// interrupted run keeps it — that is exactly the state a restart
		// resumes from.
		_ = cfg.Store.Delete(cfg.runKey())
	}
	summary = runSummary{
		Problem:     res.Problem,
		BestCost:    res.BestCost,
		BestPerm:    res.BestPerm,
		InitialCost: res.InitialCost,
		Elapsed:     res.Elapsed,
		Rounds:      res.Rounds,
		Interrupted: res.Interrupted,
	}
	return res, nil
}

// loadSnapshot fetches and validates a persisted run snapshot, or
// returns nil when there is none (or it is unusable). Store read
// failures are treated as "no snapshot": durability must never make a
// fresh run un-startable. So is a snapshot that decodes but would hand
// a worker a solution the problem refuses, or a range outside the
// problem: resuming it would crash that worker.
func loadSnapshot(prob Problem, cfg Config) *masterSnapshot {
	if cfg.Store == nil {
		return nil
	}
	b, ok, err := cfg.Store.Get(cfg.runKey())
	if err != nil || !ok {
		return nil
	}
	snap, err := decodeSnapshot(b)
	if err != nil {
		return nil
	}
	if snap.Problem != prob.Name() || snap.Size != prob.Size() || snap.Seed != cfg.Seed {
		return nil
	}
	if snap.Round <= 0 || !snap.usable(prob) {
		return nil
	}
	return snap
}

// finalize attaches problem-specific exact scoring when the problem
// offers it.
func finalize(prob Problem, res *Result) (*Result, error) {
	if f, ok := prob.(Finalizer); ok {
		details, err := f.Finalize(res.BestPerm)
		if err != nil {
			return nil, fmt.Errorf("core: best solution invalid: %w", err)
		}
		res.Details = details
	}
	return res, nil
}
