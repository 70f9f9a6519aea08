// Package core implements the paper's contribution: the two-level
// parallel tabu search (PTS) for VLSI standard-cell placement in a
// heterogeneous environment.
//
// Three process kinds cooperate over the PVM-like substrate
// (pts/internal/pvm):
//
//   - the master spawns TSWs, hands every one the same initial solution,
//     collects their bests each global iteration, and broadcasts the
//     winner (solution plus its tabu list);
//   - Tabu Search Workers (TSWs) each run their own tabu search
//     (multi-search threads, p-control): per global iteration they first
//     diversify with respect to their own cell range, then drive
//     LocalIters tabu iterations using their candidate-list workers;
//   - Candidate-list Workers (CLWs) build the candidate list in parallel
//     (functional decomposition, 1-control): each owns a cell range
//     (probabilistic domain decomposition) and produces one compound
//     move of depth Depth per request, keeping the best of Trials pair
//     swaps per step and accepting early when the cost improves.
//
// Heterogeneity adaptation (Config.HalfSync): a parent collects results
// until half of its children reported, then forces the rest to report
// their best-so-far immediately — at both parallelization levels,
// exactly as in the paper's §4.2.
package core

import (
	"fmt"

	"pts/internal/pvm"
	"pts/internal/store"
)

// Config parameterizes one parallel tabu search run. It holds only what
// the engine reads: the problem's own settings (for placement, the
// slot-grid utilization and the fuzzy cost goals) belong to the
// Problem, which every process builds for itself. A distributed run
// ships the Config to its workers as itself, with the process-local
// Store, Transport and Progress zeroed (see newJobPayload).
type Config struct {
	// TSWs is the number of tabu search workers (high-level
	// parallelization degree).
	TSWs int
	// CLWs is the number of candidate-list workers per TSW (low-level
	// parallelization degree).
	CLWs int
	// GlobalIters is the number of master synchronization rounds.
	GlobalIters int
	// LocalIters is the number of tabu iterations per TSW per global
	// iteration.
	LocalIters int
	// Trials is m: candidate pairs per compound-move step.
	Trials int
	// Depth is d: maximum swaps per compound move.
	Depth int
	// Tenure is the tabu tenure in TSW iterations.
	Tenure int
	// DiversifyDepth is the number of forced diversification swaps each
	// TSW performs at the start of every global iteration; 0 disables
	// diversification.
	DiversifyDepth int
	// HalfSync enables the heterogeneous collection mode: parents force
	// stragglers to report once half their children finished. When
	// false, parents wait for every child (the paper's homogeneous run).
	HalfSync bool
	// Adaptive enables the heterogeneity-aware scheduler
	// (pts/internal/sched): element ranges are seeded proportionally to
	// the declared machine speeds and re-partitioned at synchronization
	// barriers to track each worker's observed throughput, with each
	// CLW's per-step trial budget scaled to its range share so faster
	// workers do proportionally more of the work. Adaptive runs also
	// tolerate CLW loss on distributed transports: a dead CLW's range
	// folds back into the survivors instead of aborting the run, and
	// late-joining workers are absorbed as spare capacity.
	//
	// Off (the default), partitioning is the paper's static equal
	// split. On, virtual-time runs remain deterministic in the seed
	// (scheduling decisions key off modeled time), but differ from
	// static runs.
	Adaptive bool
	// DisableRespawn turns off worker recovery in adaptive runs: a
	// lost CLW's range still folds into the survivors (the pre-respawn
	// graceful degradation) but no replacement is requested and a lost
	// TSW aborts the run. The zero value — recovery on — is the default
	// whenever Adaptive is set; static runs never lose workers
	// tolerably in the first place. TSWs checkpoint either way: the
	// checkpoints are part of every run's trajectory.
	DisableRespawn bool
	// Store, when non-nil, makes the run persistent: the master writes
	// a run snapshot (round index, incumbent best, the TSW checkpoint
	// ledger) under "runs/<RunID>" at every resync barrier but the
	// last, behind the search (see snapshotWriter), and a fresh
	// run that finds a snapshot there resumes it instead of starting
	// over. Every run checkpoints and reseeds its workers the same way
	// (see tswRun), so a store changes nothing about the search: a
	// store-backed run is bit-identical to the same run without one,
	// and a resumed fixed-seed run reproduces the uninterrupted one.
	// The snapshot is deleted when the run completes uninterrupted.
	// Process-local (master only), never serialized.
	Store store.Store `json:"-"`
	// RunID names the snapshot key within the store ("runs/<RunID>");
	// empty means "run". Give concurrent runs sharing one store
	// distinct IDs.
	RunID string
	// WorkPerTrial is the modeled compute cost, in reference seconds, of
	// evaluating one trial swap; it is what the virtual runtime charges.
	WorkPerTrial float64
	// Seed drives the initial solution and every worker's sampling.
	Seed uint64
	// RecordTrace keeps the best-cost-versus-time trace in the result.
	RecordTrace bool
	// Progress, when non-nil, receives one Snapshot per completed global
	// iteration, from the master as soon as the round's reports are in.
	// The callback runs on the master's thread of execution (the virtual
	// kernel's single goroutine in Virtual mode): keep it fast and do
	// not call back into the run from it.
	Progress func(Snapshot) `json:"-"`
	// Transport, when non-nil, hosts Real-mode runs: the in-process
	// goroutine transport when nil, or a nettrans master for
	// distributed runs across processes. Process-local, never
	// serialized.
	Transport pvm.Transport `json:"-"`
	// ProblemSpec, when non-nil, names the built-in workload in a
	// distributed run's job payload, so worker daemons equipped with a
	// resolver (WorkerOptions.Resolve) construct the job's problem on
	// demand instead of serving one fixed problem. Nil (the default)
	// requires every worker to have been started with the master's
	// problem. Ignored outside the distributed path.
	ProblemSpec *ProblemSpec
	// WorkScale, when positive, makes Real-mode runs emulate machine
	// speed: every Env.Work(s) sleeps s*WorkScale/speed wall seconds on
	// its node. It is how a distributed run expresses the paper's
	// heterogeneity on nodes that declared different speed factors; 0
	// (the default) makes Work free in real time.
	WorkScale float64
}

// tswMachine returns the machine index of TSW i. Tasks are placed the
// way PVM's global round-robin places them: master on machine 0, TSW i
// on 1+i, CLW j of TSW i on 1+TSWs+i·CLWs+j (all modulo the cluster
// size), so every TSW group mixes machine speeds.
func (c Config) tswMachine(i int) int { return 1 + i }

// clwMachine returns the machine index of CLW j of TSW i under the
// same round-robin placement as tswMachine.
func (c Config) clwMachine(i, j int) int { return 1 + c.TSWs + i*c.CLWs + j }

// DefaultConfig returns the parameter set used by the experiments
// unless a figure says otherwise.
func DefaultConfig() Config {
	return Config{
		TSWs:           4,
		CLWs:           1,
		GlobalIters:    10,
		LocalIters:     60,
		Trials:         12,
		Depth:          4,
		Tenure:         10,
		DiversifyDepth: 12,
		HalfSync:       true,
		// 20 µs per trial evaluation reproduces the paper's 2003-era
		// compute/communication ratio against the ~250 µs LAN latency:
		// one compound move costs ~1 ms, so collection order actually
		// depends on machine speed and load.
		WorkPerTrial: 20e-6,
		Seed:         1,
		RecordTrace:  true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TSWs < 1:
		return fmt.Errorf("core: TSWs %d < 1", c.TSWs)
	case c.CLWs < 1:
		return fmt.Errorf("core: CLWs %d < 1", c.CLWs)
	case c.GlobalIters < 1:
		return fmt.Errorf("core: GlobalIters %d < 1", c.GlobalIters)
	case c.LocalIters < 1:
		return fmt.Errorf("core: LocalIters %d < 1", c.LocalIters)
	case c.Trials < 1:
		return fmt.Errorf("core: Trials %d < 1", c.Trials)
	case c.Depth < 1:
		return fmt.Errorf("core: Depth %d < 1", c.Depth)
	case c.Tenure < 1:
		return fmt.Errorf("core: Tenure %d < 1", c.Tenure)
	case c.DiversifyDepth < 0:
		return fmt.Errorf("core: DiversifyDepth %d < 0", c.DiversifyDepth)
	case c.WorkPerTrial < 0:
		return fmt.Errorf("core: WorkPerTrial %v < 0", c.WorkPerTrial)
	case c.WorkScale < 0:
		return fmt.Errorf("core: WorkScale %v < 0", c.WorkScale)
	case c.Store != nil && !store.ValidKey(c.runKey()):
		return fmt.Errorf("core: RunID %q is not a valid store key segment", c.RunID)
	}
	return nil
}

// respawn reports whether this run recovers lost workers: adaptive
// scheduling on (the only mode that watches for losses at all) and
// recovery not explicitly disabled.
func (c Config) respawn() bool { return c.Adaptive && !c.DisableRespawn }

// runKey is the store key of this run's master snapshot.
func (c Config) runKey() string {
	id := c.RunID
	if id == "" {
		id = "run"
	}
	return "runs/" + id
}

// ranges partitions [0, n) into k nearly equal half-open ranges, the
// cell subsets assigned to workers. With more workers than elements
// (k > n) the first n workers get one element each and the rest get
// empty ranges [n, n) — callers skip spawning workers for empty ranges
// rather than running searchers with a degenerate domain.
func ranges(n int32, k int) [][2]int32 {
	out := make([][2]int32, k)
	if int64(k) > int64(n) {
		for i := range out {
			if int32(i) < n {
				out[i] = [2]int32{int32(i), int32(i) + 1}
			} else {
				out[i] = [2]int32{n, n}
			}
		}
		return out
	}
	for i := 0; i < k; i++ {
		lo := int32(int64(n) * int64(i) / int64(k))
		hi := int32(int64(n) * int64(i+1) / int64(k))
		out[i] = [2]int32{lo, hi}
	}
	return out
}

// workSTA is the modeled compute cost of one full state refresh (a full
// timing analysis for placement), scaling with problem size: roughly
// n/8 trial-evaluation equivalents.
func workSTA(cfg Config, size int32) float64 {
	return cfg.WorkPerTrial * float64(size) / 8
}
