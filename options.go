package pts

import (
	"pts/internal/cluster"
	"pts/internal/core"
)

// Option configures one Solve call. Options apply in order over the
// paper's default parameter set (the experiments' configuration); an
// unset knob keeps its default.
type Option func(*settings)

// settings is the resolved configuration of one run.
type settings struct {
	cfg  core.Config
	clus cluster.Cluster
	mode core.Mode
	// modeSet records an explicit WithVirtualTime/WithRealTime, so
	// WithMaster can tell "default virtual" (silently upgraded to real)
	// from "requested virtual" (a configuration error).
	modeSet bool
}

// defaultSettings returns the zero-option configuration: the paper's
// default search parameters on the loaded 12-machine testbed, executed
// on the deterministic virtual runtime.
func defaultSettings() settings {
	return settings{
		cfg:  core.DefaultConfig(),
		clus: cluster.Testbed12(defaultTestbedSeed),
		mode: core.Virtual,
	}
}

// defaultTestbedSeed drives the default cluster's load traces — the
// value the repository's walkthroughs use.
const defaultTestbedSeed = 12

// apply folds options over the defaults.
func apply(opts []Option) settings {
	s := defaultSettings()
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	return s
}

// WithWorkers sets the two parallelization degrees: tsws tabu search
// workers (multi-search threads), each driving clws candidate-list
// workers (functional decomposition).
func WithWorkers(tsws, clws int) Option {
	return func(s *settings) {
		s.cfg.TSWs = tsws
		s.cfg.CLWs = clws
	}
}

// WithIterations sets the iteration budget: global master
// synchronization rounds times local tabu iterations per worker per
// round.
func WithIterations(global, local int) Option {
	return func(s *settings) {
		s.cfg.GlobalIters = global
		s.cfg.LocalIters = local
	}
}

// WithHalfSync toggles the heterogeneity adaptation: when on, parents
// force stragglers to report as soon as half their children finished
// (the paper's §4.2 collection scheme); when off, every child is
// awaited (the homogeneous baseline).
func WithHalfSync(on bool) Option {
	return func(s *settings) { s.cfg.HalfSync = on }
}

// WithAdaptive toggles the heterogeneity-aware adaptive scheduler.
//
// When on, the element space is partitioned over workers
// proportionally to the machines' declared speeds (so the first round
// is already skewed toward fast nodes), then re-partitioned at every
// synchronization barrier to track each worker's observed throughput —
// with each candidate-list worker's per-step trial budget scaled to
// its range share, faster machines do proportionally more of the work
// and rounds finish together instead of waiting on the slowest node.
// Adaptive distributed runs also degrade gracefully: a worker process
// lost mid-run has its element range folded back into the survivors
// and the run completes (where a static run would return
// Result.Interrupted), and worker processes joining late are absorbed
// as spare capacity.
//
// Off (the default), partitioning is the paper's fixed equal split.
// Adaptive virtual-time runs are still deterministic in WithSeed —
// scheduling decisions key off modeled time, not the wall clock — but
// explore a different (speed-weighted) trajectory.
func WithAdaptive(on bool) Option {
	return func(s *settings) { s.cfg.Adaptive = on }
}

// WithRespawn toggles worker recovery in adaptive runs (on by
// default).
//
// With recovery on, a candidate-list worker lost with its hosting
// process is not merely folded into the survivors: the owning TSW
// requests a replacement from the master, which spawns it onto live
// capacity — absorbed elastic spare slots first, else the least-loaded
// surviving node — and the TSW re-seeds it from its current solution
// at the next synchronization barrier, restoring the lost parallelism.
// Every TSW piggybacks a recovery checkpoint (incumbent solution, tabu
// memory, iteration counters, random-stream seed, CLW attachment
// table) on each report, so a lost TSW is resurrected from its last
// checkpoint onto a fresh CLW set, its old CLWs stopped by the master
// — no single worker process is fatal. Result.Stats counts both sides as
// WorkersLost and WorkersRespawned.
//
// WithRespawn(false) restores the fold-only degradation: CLW losses
// shrink the search and a TSW loss aborts the run (best-so-far with
// Result.Interrupted). Without WithAdaptive neither mode applies —
// static runs abort on any loss, the paper's behavior.
func WithRespawn(on bool) Option {
	return func(s *settings) { s.cfg.DisableRespawn = !on }
}

// WithStore makes the run crash-only durable: the master persists a
// run snapshot (round index, incumbent best, every TSW's latest
// checkpoint) to st at each synchronization barrier but the last, and
// a later Solve with the same store, problem, seed and parameters
// finds the snapshot and resumes the run where it stopped — the
// snapshot is deleted only on clean completion. Snapshots are written
// behind the search: the master encodes one at the barrier and starts
// the next round at once, one goroutine writes it, and a newer
// snapshot replaces one still waiting. Solve returns only after the
// last write landed, but a process killed mid-run resumes from the
// newest snapshot whose write finished, which can be one barrier older
// than the last progress event. A fixed-seed virtual-time run
// resumed this way finishes bit-identical to the same run left
// uninterrupted (static workers, full sync). Snapshots live under
// "runs/run" in the store, so one store tracks one run at a time; the
// serving daemon namespaces per job instead.
//
// The store only adds persistence: every run checkpoints and reseeds
// its workers the same way, so a fixed-seed run with a store is
// bit-identical to the same run without one. It is independent of
// WithRespawn: respawn recovers worker losses within a live run, the
// store recovers the master process itself. A static store-enabled
// run still aborts when a worker process dies — the snapshot is then
// what makes the abort recoverable by the next Solve. A nil st is a
// no-op.
func WithStore(st Store) Option {
	return func(s *settings) { s.cfg.Store = st }
}

// WithCluster selects the machines the run executes on.
func WithCluster(c Cluster) Option {
	return func(s *settings) { s.clus = c.c }
}

// WithSeed fixes the run seed: the initial solution and every worker's
// sampling derive from it, so virtual-time runs are bit-reproducible.
func WithSeed(seed uint64) Option {
	return func(s *settings) { s.cfg.Seed = seed }
}

// WithVirtualTime runs on the deterministic discrete-event runtime:
// compute and messages cost modeled time on the configured cluster, and
// results are bit-identical across hosts and runs. It is single-process
// by construction and cannot combine with WithMaster.
func WithVirtualTime() Option {
	return func(s *settings) { s.mode, s.modeSet = core.Virtual, true }
}

// WithRealTime runs with wall-clock timing — the same algorithm code,
// in process by default or across OS processes with WithMaster. In
// process, each TSW runs on a goroutine of its own and its CLWs run as
// coroutines on that goroutine, one compound-move step per turn: TSWs
// run in parallel, while a TSW's CLWs share one core. Running CLWs in
// parallel is the job of the distributed transport. The modeled
// per-trial work charge does not apply unless WithWorkScale asks for
// speed emulation, and results are not deterministic in time. In
// process, with adaptive scheduling off and without speed emulation,
// 1 TSW x any number of CLWs repeats its search outcome per seed, with
// half-sync off or on. Runs
// with several TSWs, and distributed runs, still fold ties in arrival
// order: the master keeps the first-arrived of equal-cost reports, and
// a distributed TSW takes equal-delta CLW candidates as they arrive.
func WithRealTime() Option {
	return func(s *settings) { s.mode, s.modeSet = core.Real, true }
}

// WithProgress streams one Snapshot per completed global iteration to
// fn, delivered by the master as soon as the round's reports are
// collected. fn runs on the run's own thread of execution: keep it
// fast, and do not call back into the solver from it. Cancelling the
// run's context from fn is the supported way to stop early based on
// observed progress.
func WithProgress(fn func(Snapshot)) Option {
	return func(s *settings) {
		if fn == nil {
			s.cfg.Progress = nil
			return
		}
		s.cfg.Progress = func(cs core.Snapshot) { fn(newSnapshot(cs)) }
	}
}

// WithTrace toggles recording of the best-cost-versus-time curve in
// Result.Trace (on by default). Turn it off for long runs where the
// per-improvement points are not needed; WithProgress covers the
// per-round granularity either way.
func WithTrace(on bool) Option {
	return func(s *settings) { s.cfg.RecordTrace = on }
}

// WithTabu sets the core tabu search parameters: tenure (iterations an
// attribute stays tabu), trials (candidate pairs per compound-move
// step, the paper's m) and depth (maximum swaps per compound move, the
// paper's d).
func WithTabu(tenure, trials, depth int) Option {
	return func(s *settings) {
		s.cfg.Tenure = tenure
		s.cfg.Trials = trials
		s.cfg.Depth = depth
	}
}

// WithDiversification sets the number of forced Kelly-style
// diversification swaps each worker performs at every global iteration;
// 0 disables diversification.
func WithDiversification(depth int) Option {
	return func(s *settings) { s.cfg.DiversifyDepth = depth }
}
