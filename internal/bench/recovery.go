package bench

import (
	"context"
	"fmt"
	"time"

	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/pvm/nettrans"
)

// Recovery benchmark: fold-only degradation (PR-4 behavior,
// WithRespawn(false)) versus full recovery (the default) when a
// CLW-hosting worker process is killed mid-run. Both sides run the
// identical fixed-seed adaptive search over a real loopback-TCP
// cluster — one master process plus three single-slot worker daemons
// (emulated as goroutines with independent connections) — with
// WorkScale speed emulation so modeled work costs genuine wall time.
// The doomed worker's connection is severed once the configured round
// is reported, exactly like the CI e2e kill. Fold-only finishes the
// budget on two CLW hosts; recovery respawns a replacement onto
// surviving capacity and finishes on three.

// The recovery scenario's iteration budget (identical for both sides;
// Opts.Scale multiplies the local iterations), the round whose progress
// report triggers the kill, and the defaults for Opts.Circuits, Seed and
// WorkScale. c532 is large enough that the fuzzy cost does not bottom
// out at this budget, so the final-cost comparison stays informative.
const (
	recoveryGlobalIters = 6
	recoveryLocalIters  = 20
	recoveryKillRound   = 2
	recoveryCircuit     = "c532"
	recoverySeed        = 7
	recoveryWorkScale   = 30
)

// Recovery runs the fold-only-vs-respawn comparison. Each side
// (workload fold_only or respawn) yields engine records wall_seconds,
// best_cost, rounds, interrupted (0 or 1), workers_lost,
// workers_respawned and rebalances; the respawn side's speedup is
// fold-only wall time over respawn wall time at the equal iteration
// budget: > 1 means restoring the lost parallelism beat limping home
// on the survivors.
func Recovery(o Opts) (*Report, error) {
	o = o.scenario(recoveryCircuit, recoverySeed, recoveryWorkScale)
	nl, err := netlist.Benchmark(o.Circuits[0])
	if err != nil {
		return nil, err
	}
	localIters := o.scaled(recoveryLocalIters, 1)

	run := func(disableRespawn bool) (*core.Result, error) {
		cfg := core.DefaultConfig()
		cfg.TSWs, cfg.CLWs = 1, 3
		cfg.GlobalIters, cfg.LocalIters = recoveryGlobalIters, localIters
		cfg.Seed = o.Seed
		// Full collection and one wide sampling step per candidate, like
		// the hetero scenario: each iteration's critical path is the
		// per-step trial budget the scheduler balances.
		cfg.HalfSync = false
		cfg.Trials, cfg.Depth = 64, 1
		cfg.Adaptive = true
		cfg.DisableRespawn = disableRespawn
		cfg.WorkScale = o.WorkScale

		master, err := nettrans.Listen(nettrans.MasterConfig{Addr: "127.0.0.1:0", Workers: 3})
		if err != nil {
			return nil, err
		}
		defer master.Close()
		cfg.Transport = master

		// Three single-slot workers joined in order (the ring: TSW on
		// w1, CLWs on w2, w3 and the master process); w3 — hosting one
		// CLW — is the doomed one.
		newProblem := func() core.Problem {
			return cost.NewPlacementProblem(nl)
		}
		doomedCtx, kill := context.WithCancel(o.Context)
		defer kill()
		workerErrs := make(chan error, 3)
		for i := 1; i <= 3; i++ {
			wctx := o.Context
			if i == 3 {
				wctx = doomedCtx
			}
			name := fmt.Sprintf("r%d", i)
			go func(ctx context.Context, name string) {
				workerErrs <- core.ServeWorker(ctx, newProblem(), core.WorkerOptions{
					Addr: master.Addr(), Name: name, Jobs: 1,
				}, nil)
			}(wctx, name)
			// Join order fixes slot assignment; wait for each registration.
			deadline := time.Now().Add(10 * time.Second)
			for len(master.Nodes()) < i {
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("bench: only %d of %d workers joined", len(master.Nodes()), i)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}

		killed := false
		cfg.Progress = func(s core.Snapshot) {
			if s.Round == recoveryKillRound && !killed {
				killed = true
				kill()
			}
		}

		res, err := core.RunProblem(o.Context, newProblem(), cluster.Homogeneous(4, 1), cfg, core.Real)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 3; i++ {
			<-workerErrs // the doomed worker's error is expected; drain all
		}
		return res, nil
	}

	rep := newReport("recovery", "worker-loss recovery: fold-only vs respawn at equal iteration budget, one CLW host killed mid-run",
		map[string]any{"circuit": nl.Name, "work_scale": o.WorkScale, "global_iters": recoveryGlobalIters,
			"local_iters": localIters, "kill_round": recoveryKillRound, "seed": o.Seed})
	var wall [2]float64
	for i, side := range []string{"fold_only", "respawn"} {
		res, err := run(i == 0)
		if err != nil {
			return nil, err
		}
		wall[i] = res.Elapsed
		rep.add("engine", side, "wall_seconds", res.Elapsed)
		rep.add("engine", side, "best_cost", res.BestCost)
		rep.add("engine", side, "rounds", float64(res.Rounds))
		interrupted := 0.0
		if res.Interrupted {
			interrupted = 1
		}
		rep.add("engine", side, "interrupted", interrupted)
		rep.add("engine", side, "workers_lost", float64(res.Stats.WorkersLost))
		rep.add("engine", side, "workers_respawned", float64(res.Stats.WorkersRespawned))
		rep.add("engine", side, "rebalances", float64(res.Stats.Rebalances))
	}
	if wall[1] > 0 {
		rep.add("engine", "respawn", "speedup", wall[0]/wall[1])
	}
	return rep, nil
}
