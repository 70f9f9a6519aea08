// Package pts is a parallel tabu search solver in the style of
// "Parallel Tabu Search in a Heterogeneous Environment" (Al-Yamani,
// Sait, Barada, Youssef — IPDPS 2003): a two-level parallelization —
// multi-search tabu workers above, functionally decomposed
// candidate-list workers below — with the paper's half-sync adaptation
// to machines of different speeds and loads, running on a PVM-like
// message-passing substrate over either a deterministic simulated
// cluster or real goroutines.
//
// # Solving a problem
//
// The public surface is one call:
//
//	p, err := pts.PlacementBenchmark("c532")
//	if err != nil { ... }
//	res, err := pts.Solve(ctx, p,
//		pts.WithWorkers(4, 2),
//		pts.WithIterations(10, 60),
//		pts.WithSeed(7),
//	)
//
// Solve is context-aware: cancel ctx (or let its deadline pass) and the
// run winds down cooperatively, returning the best solution found so
// far with Result.Interrupted set. WithProgress streams one Snapshot
// per global iteration while the run is in flight.
//
// # Pluggable problems
//
// The engine is problem-agnostic: anything implementing Problem — mint
// independent search States over a shared permutation encoding — can be
// solved. Four workloads ship built in: the paper's VLSI standard-cell
// placement under a fuzzy multi-objective cost (PlacementProblem), the
// quadratic assignment problem (QAPProblem), permutation flow shop
// scheduling (FlowShopProblem, with Taillard's ta001 embedded), and
// job shop scheduling under an operation-based permutation encoding
// (JobShopProblem, with OR-Library ft06/ft10/la01 embedded). All run
// through the identical Solve path.
//
// # Execution modes
//
// WithVirtualTime (the default) executes on a discrete-event kernel
// with modeled machine speeds, background loads and LAN latencies:
// results are bit-reproducible in WithSeed, which is what every figure
// of the paper's evaluation uses. WithRealTime executes the same
// algorithm code on goroutines with wall-clock timing.
//
// # Distributed mode
//
// Real-time runs can leave the process: WithListen makes a Solve the
// master of a distributed run over TCP, and worker processes join it
// with WithJoin (one job) or Worker (a daemon), each declaring a
// relative speed factor and slot capacity in the master's registry —
// the heterogeneity the paper's PVM testbed had in hardware. Every
// process builds the same Problem from the same inputs; only protocol
// messages cross the wire. A distributed run is a real-time run, so it
// is reproducible per seed only in the 1 TSW x 1 CLW configuration
// (see the reproducibility contract below).
//
// Virtual mode stays single-process by design: it is the deterministic
// reference the distributed and goroutine transports are checked
// against, not a mode they replace.
//
// # Adaptive scheduling
//
// WithAdaptive turns on the heterogeneity-aware scheduler: element
// ranges are seeded proportionally to the declared machine speeds and
// re-partitioned at synchronization barriers to track each worker's
// observed throughput, with per-step trial budgets scaled to range
// shares. On the distributed transport, adaptive runs additionally
// absorb late-joining worker processes as spare capacity.
//
// # Failure recovery
//
// Adaptive distributed runs survive worker-process loss, and — with
// respawn on, the default — recover from it rather than merely
// tolerate it. A lost candidate-list worker's element range folds back
// into the survivors, the owning TSW requests a replacement, and the
// master spawns it onto live capacity (absorbed elastic spare slots
// first, else the least-loaded surviving node), re-seeded from the
// TSW's current solution at the next synchronization barrier. A lost
// TSW is resurrected from its last checkpoint with its surviving CLWs
// re-attached. No single worker process is fatal to a run;
// Result.Stats reports WorkersLost and WorkersRespawned.
// WithRespawn(false) restores the fold-only degradation (and makes a
// TSW loss abort again); static runs abort on any loss, the paper's
// behavior. See ARCHITECTURE.md for the full protocol.
//
// Every run, whatever its mode, follows one checkpoint protocol: each
// TSW sends a recovery checkpoint (incumbent solution, tabu memory,
// iteration counters, random-stream seed, CLW attachment table) at
// spawn and with every report, continues its random stream from the
// seed it published, and reseeds its CLWs from that stream at every
// synchronization barrier. Respawn resurrects TSWs from these
// checkpoints, and WithStore persists them so a restarted Solve
// resumes the run. A store only adds persistence: a fixed-seed run
// with one is bit-identical to the same run without.
//
// Reproducibility contract:
//
//   - Adaptive off (the default): fixed-seed virtual-time runs are
//     bit-identical across runs and hosts, with or without WithStore
//     (the golden tests pin them).
//   - WithRealTime, in process or distributed, with half-sync off: the
//     search outcome is deterministic in WithSeed only for 1 TSW x 1
//     CLW. With two or more TSWs or CLWs it is not: the master keeps
//     the first-arrived of equal-cost TSW reports and a TSW takes
//     equal-delta CLW candidates in arrival order, so ties follow
//     timing (12 of 40 fixed-seed c532 runs with 1 TSW x 2 CLWs gave
//     differing best costs).
//   - Adaptive on under WithVirtualTime: still deterministic in
//     WithSeed — scheduling decisions key off modeled time — but the
//     trajectory differs from the static partition's and may change
//     across releases as the scheduler evolves.
//   - Adaptive on under WithRealTime: shares follow the wall clock, so
//     runs are not time-reproducible (like any real-mode run); a run
//     that lost workers reports Stats.WorkersLost (and, with respawn
//     on, Stats.WorkersRespawned) instead of Interrupted.
//
// # Evaluator complexity guarantees
//
// The search's throughput rests on the placement evaluator's trial
// kernel, which maintains these bounds:
//
//   - A trial swap or relocation (cost deltas for wirelength, weighted
//     delay and area together) is O(1) per affected net and performs no
//     heap allocation. Each net's bounding box stores, per axis, the
//     boundary coordinates plus their runner-up order statistics, so
//     removing a boundary pin exposes the runner-up and adding a pin can
//     only push a boundary outward — no pin rescan, ever, on the trial
//     path.
//   - Nets connecting both swapped cells are skipped outright (their pin
//     multiset is unchanged), detected by a merge walk over the two
//     cells' sorted CSR net lists.
//   - The area objective (maximum row width) answers trial queries in
//     O(1) from a top-two row-width cache.
//   - Committing a swap is one walk over the affected nets in ascending
//     id: each net is scored exactly as the trial scored it, so the
//     maintained objectives are bit-identical to the trial's, and its
//     box is updated in the same step. A net of up to 4 pins updates
//     in place in O(1), since its four statistics per axis hold its
//     whole coordinate multiset. A larger net is rebuilt by an
//     O(degree) pin rescan only when the moved pin was at (or tied
//     with) one of the four tracked statistics on some axis — amortized
//     away by the Trials-per-commit ratio of the search. Row-width
//     commits rescan rows only when a top-two row shrinks below the
//     runner-up.
//   - Trials are evaluated in candidate batches (one batch per compound
//     move, the engine's Trials parameter wide): a batch costs one
//     evaluator-state hoist plus the per-trial O(1) work above, so
//     per-call overhead and tabu-ring probing amortize across the batch
//     (one tabu-list pass classifies a whole move set). Batch evaluation
//     is contractually bit-identical to the per-candidate path —
//     candidate generation order, float accumulation order and argmin
//     tie-breaking are preserved, so fixed-seed static runs reproduce
//     the scalar trajectory exactly (asserted by fuzz and golden tests).
//   - The scheduling workloads deliberately break the O(1)-per-delta
//     pattern while keeping every contract above: a flow shop trial
//     recomputes the critical-path section between the swapped
//     positions against cached head/tail matrices (O(machines x span)),
//     and a job shop trial re-decodes the operation sequence from the
//     stored checkpoint at or below the first swapped position, stopping
//     once the schedule re-converges past the second (O(jobs x machines)
//     at worst, with a same-job-token fast path answering zero). Both do
//     all schedule arithmetic in exact integers, so batch and scalar
//     evaluation are bit-identical by construction (fuzzed per package,
//     pinned by golden_sched_test.go), and both stay allocation-free per
//     trial once caches are warm.
//
// The implementation lives under internal/ (ARCHITECTURE.md maps the
// layers and documents every protocol message); cmd/ holds the
// executables and examples/ runnable walkthroughs, and the Example
// functions in this package's documentation are runnable as tests.
// bench_test.go carries the per-figure benchmark harness. cmd/ptsbench
// regenerates the figures and runs the scenario benchmarks, each writing
// one results/BENCH_<name>.json record with its host, inputs and flat
// records: `ptsbench -hotpath` measures the trial kernel,
// `ptsbench -hetero` the adaptive-scheduling payoff,
// `ptsbench -recovery` the worker-loss recovery payoff,
// `ptsbench -serve` the serving scheduler's jobs/minute and latency, and
// `ptsbench -sched` the scheduling workloads' search quality and
// delta-kernel throughput.
package pts
