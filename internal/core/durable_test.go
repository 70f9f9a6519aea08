package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"pts/internal/cluster"
	"pts/internal/store"
)

// durableCfg is quickCfg with a store attached, so the run persists a
// snapshot at every barrier and resumes from one it finds.
func durableCfg(st store.Store) Config {
	cfg := quickCfg()
	cfg.GlobalIters = 6
	cfg.Store = st
	cfg.RunID = "t"
	return cfg
}

// TestDurableResumeMatchesUninterrupted is the crash-only contract: a
// run killed after its snapshot barrier and restarted from the store
// finishes with exactly the result the uninterrupted store-enabled run
// produces (Virtual mode, fixed seed, static workers).
func TestDurableResumeMatchesUninterrupted(t *testing.T) {
	clus := cluster.Homogeneous(12, 1)

	// Reference: uninterrupted durable run.
	refStore := store.NewMem()
	refCfg := durableCfg(refStore)
	ref, err := RunProblem(context.Background(), highwayProblem(), clus, refCfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Interrupted {
		t.Fatal("reference run interrupted")
	}
	if _, ok, _ := refStore.Get(refCfg.runKey()); ok {
		t.Fatal("snapshot not deleted after clean completion")
	}

	// Interrupted: cancel from the progress callback right after the
	// round-2 barrier — deterministically, inside the master's own event.
	st := store.NewMem()
	cfg := durableCfg(st)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Progress = func(s Snapshot) {
		if s.Round == 2 {
			cancel()
		}
	}
	cut, err := RunProblem(ctx, highwayProblem(), clus, cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if !cut.Interrupted {
		t.Fatal("cancelled run not marked interrupted")
	}
	if cut.Rounds != 2 {
		t.Fatalf("interrupted after %d rounds, want 2", cut.Rounds)
	}
	if _, ok, _ := st.Get(cfg.runKey()); !ok {
		t.Fatal("interrupted run left no snapshot")
	}

	// Resume: same store, same config, fresh context.
	cfg2 := durableCfg(st)
	res, err := RunProblem(context.Background(), highwayProblem(), clus, cfg2, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("resumed run interrupted")
	}
	if res.Rounds != cfg2.GlobalIters {
		t.Fatalf("resumed run completed %d rounds, want %d", res.Rounds, cfg2.GlobalIters)
	}
	if res.BestCost != ref.BestCost {
		t.Fatalf("resumed best %v != uninterrupted best %v", res.BestCost, ref.BestCost)
	}
	for i := range ref.BestPerm {
		if res.BestPerm[i] != ref.BestPerm[i] {
			t.Fatal("resumed best permutation differs from uninterrupted run")
		}
	}
	if _, ok, _ := st.Get(cfg2.runKey()); ok {
		t.Fatal("snapshot not deleted after resumed completion")
	}
}

// TestDurableSnapshotFingerprint: a snapshot from different run inputs
// under the same RunID is refused, not resumed.
func TestDurableSnapshotFingerprint(t *testing.T) {
	st := store.NewMem()
	cfg := durableCfg(st)
	prob := highwayProblem()
	st0, err := prob.Initial(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	initPerm := st0.Snapshot()

	good := &masterSnapshot{
		Problem: prob.Name(), Size: prob.Size(), Seed: cfg.Seed,
		Round: 2, BestPerm: append([]int32(nil), initPerm...),
	}
	put := func(s *masterSnapshot) {
		b, err := encodeSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(cfg.runKey(), b); err != nil {
			t.Fatal(err)
		}
	}
	put(good)
	if loadSnapshot(prob, cfg) == nil {
		t.Fatal("matching snapshot refused")
	}
	mutations := []func(*masterSnapshot){
		func(s *masterSnapshot) { s.Problem = "other" },
		func(s *masterSnapshot) { s.Size++ },
		func(s *masterSnapshot) { s.Seed++ },
		func(s *masterSnapshot) { s.Round = 0 },
		func(s *masterSnapshot) { s.BestPerm = s.BestPerm[:1] },
	}
	for i, mut := range mutations {
		s := *good
		s.BestPerm = append([]int32(nil), good.BestPerm...)
		mut(&s)
		put(&s)
		if loadSnapshot(prob, cfg) != nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Corrupt bytes are "no snapshot", not an error.
	if err := st.Put(cfg.runKey(), []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	if loadSnapshot(prob, cfg) != nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestStorelessMatchesStoreBacked: every run follows one checkpoint
// and reseed protocol, so a store only adds persistence — a fixed-seed
// run with a store is bit-identical to the same run without one, in
// static and adaptive mode alike.
func TestStorelessMatchesStoreBacked(t *testing.T) {
	clus := cluster.Testbed12(5)
	for _, adaptive := range []bool{false, true} {
		cfg := quickCfg()
		cfg.Adaptive = adaptive
		plain, err := RunProblem(context.Background(), highwayProblem(), clus, cfg, Virtual)
		if err != nil {
			t.Fatal(err)
		}
		withStore := cfg
		withStore.Store = store.NewMem()
		stored, err := RunProblem(context.Background(), highwayProblem(), clus, withStore, Virtual)
		if err != nil {
			t.Fatal(err)
		}
		if plain.BestCost != stored.BestCost || plain.Elapsed != stored.Elapsed {
			t.Fatalf("adaptive=%v: storeless (%v, %v) != store-backed (%v, %v)",
				adaptive, plain.BestCost, plain.Elapsed, stored.BestCost, stored.Elapsed)
		}
		if !slices.Equal(plain.BestPerm, stored.BestPerm) {
			t.Fatalf("adaptive=%v: best permutations differ", adaptive)
		}
	}
}

// TestDurableRunIDValidation: a RunID that is not a valid store key
// segment is a config error, caught before the run starts.
func TestDurableRunIDValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Store = store.NewMem()
	cfg.RunID = "../escape"
	if err := cfg.Validate(); err == nil {
		t.Fatal("path-escaping RunID accepted")
	}
	cfg.RunID = "job-12"
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid RunID rejected: %v", err)
	}
	cfg.RunID = "" // empty defaults to "run"
	if err := cfg.Validate(); err != nil {
		t.Fatalf("empty RunID rejected: %v", err)
	}
}

// TestDurableResumeMidRoundCancel guards the snapshot against
// cancellations that land in the middle of a round (Real mode,
// wall-clock timer): TSWs truncate their local searches and still
// report, but the master must not persist that barrier — resuming from
// cancel-truncated reports would fork off the uninterrupted trajectory.
// The timer may land anywhere (before the first barrier, mid-round,
// even after completion); the bit-identity contract holds for all of
// them, so the test is timing-independent.
func TestDurableResumeMidRoundCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("real-mode wall-clock test")
	}
	clus := cluster.Homogeneous(12, 1)
	mk := func(st store.Store) Config {
		cfg := durableCfg(st)
		cfg.GlobalIters = 10
		cfg.HalfSync = false // static collection: Real mode is deterministic
		cfg.WorkScale = 15   // stretch rounds so a timer can land inside one
		return cfg
	}

	refStore := store.NewMem()
	refCfg := mk(refStore)
	start := time.Now()
	ref, err := RunProblem(context.Background(), highwayProblem(), clus, refCfg, Real)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Interrupted {
		t.Fatal("reference run interrupted")
	}
	full := time.Since(start)

	st := store.NewMem()
	cfg := mk(st)
	ctx, cancel := context.WithTimeout(context.Background(), full*2/5)
	defer cancel()
	cut, err := RunProblem(ctx, highwayProblem(), clus, cfg, Real)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cut after %v of %v: %d rounds, interrupted=%v",
		full*2/5, full, cut.Rounds, cut.Interrupted)

	cfg2 := mk(st)
	res, err := RunProblem(context.Background(), highwayProblem(), clus, cfg2, Real)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("resumed run interrupted")
	}
	if res.Rounds != cfg2.GlobalIters {
		t.Fatalf("resumed run completed %d rounds, want %d", res.Rounds, cfg2.GlobalIters)
	}
	if res.BestCost != ref.BestCost {
		t.Fatalf("resumed best %v != uninterrupted best %v", res.BestCost, ref.BestCost)
	}
	for i := range ref.BestPerm {
		if res.BestPerm[i] != ref.BestPerm[i] {
			t.Fatal("resumed best permutation differs from uninterrupted run")
		}
	}
	if _, ok, _ := st.Get(cfg2.runKey()); ok {
		t.Fatal("snapshot not deleted after resumed completion")
	}
}
