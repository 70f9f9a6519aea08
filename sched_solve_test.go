package pts

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// schedOpts is a small but diversified search, enough for the engine to
// find proven optima of tiny instances.
func schedOpts(seed uint64) []Option {
	return []Option{
		WithWorkers(3, 2),
		WithIterations(8, 30),
		WithTabu(8, 8, 4),
		WithDiversification(10),
		WithSeed(seed),
		WithCluster(Homogeneous(12, 1)),
	}
}

// TestFlowShopSolveMatchesBruteForce runs the full engine on tiny
// instances whose optimum an exhaustive search can certify: the engine
// must reach exactly that makespan and never beat it.
func TestFlowShopSolveMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		prob := RandomFlowShop(6, 3, seed)
		opt := float64(prob.BruteForceOptimum())
		res, err := Solve(context.Background(), prob, schedOpts(seed)...)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestCost < opt {
			t.Fatalf("seed %d: engine makespan %.0f beats certified optimum %.0f", seed, res.BestCost, opt)
		}
		if res.BestCost != opt {
			t.Errorf("seed %d: engine makespan %.0f, brute-force optimum %.0f", seed, res.BestCost, opt)
		}
	}
}

// TestJobShopSolveMatchesBruteForce is the job shop counterpart over
// instances small enough (4 jobs x 3 machines) for the exhaustive
// multiset-permutation oracle.
func TestJobShopSolveMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		prob := RandomJobShop(4, 3, seed)
		opt := float64(prob.BruteForceOptimum())
		res, err := Solve(context.Background(), prob, schedOpts(seed)...)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestCost < opt {
			t.Fatalf("seed %d: engine makespan %.0f beats certified optimum %.0f", seed, res.BestCost, opt)
		}
		if res.BestCost != opt {
			t.Errorf("seed %d: engine makespan %.0f, brute-force optimum %.0f", seed, res.BestCost, opt)
		}
	}
}

// TestFT06ReachesOptimum is the job shop acceptance gate: at this fixed
// seed the engine must reach ft06's proven optimal makespan 55 — not
// approach it, reach it — and the details must re-derive the same value
// from the returned permutation independently of the incremental path.
func TestFT06ReachesOptimum(t *testing.T) {
	prob, err := JobShopBenchmark("ft06")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), prob,
		WithWorkers(4, 1),
		WithIterations(4, 20),
		WithTabu(10, 12, 4),
		WithDiversification(12),
		WithSeed(1),
		WithCluster(Testbed12(12)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost != 55 {
		t.Fatalf("ft06 best makespan %.0f, want the proven optimum 55", res.BestCost)
	}
	d, ok := res.Details.(JobShopDetails)
	if !ok {
		t.Fatalf("Details is %T, want JobShopDetails", res.Details)
	}
	if d.Makespan != 55 || d.Optimum != 55 {
		t.Fatalf("details %+v, want makespan 55 against optimum 55", d)
	}
}

// TestFT10NeverBelowOptimum is the integrity direction of the ft10
// gate: 930 is ft10's proven optimal makespan, so no search may go
// below it. On the published data these fixed-seed solves end at
// 937–990; a drifted instance row shows up as a makespan under 930
// (with the last job's machine routing wrong, seed 52 reaches 912).
func TestFT10NeverBelowOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("ft10 solves take about half a second each")
	}
	prob, err := JobShopBenchmark("ft10")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{3, 21, 52} {
		res, err := Solve(context.Background(), prob,
			WithWorkers(4, 1),
			WithIterations(25, 120),
			WithTabu(10, 12, 4),
			WithDiversification(12),
			WithSeed(seed),
			WithCluster(Testbed12(12)),
		)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestCost < 930 {
			t.Fatalf("seed %d: ft10 makespan %.0f beats the proven optimum 930: embedded instance data or engine is wrong", seed, res.BestCost)
		}
	}
}

// TestTa001ReachesOptimum is the flow shop acceptance gate: ta001's
// proven optimal makespan is 1278 (the Taillard header's upper bound),
// and at this fixed seed a moderately sized search reaches it exactly.
// The lower-bound direction — no solution below 1278, ever — doubles as
// an end-to-end integrity check of the embedded instance data.
func TestTa001ReachesOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("ta001 optimum needs a few seconds of search")
	}
	prob, err := FlowShopBenchmark("ta001")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), prob,
		WithWorkers(6, 2),
		WithIterations(25, 80),
		WithTabu(10, 16, 5),
		WithDiversification(14),
		WithSeed(1),
		WithCluster(Testbed12(12)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost < 1278 {
		t.Fatalf("ta001 makespan %.0f beats the proven optimum 1278: embedded instance data or engine is wrong", res.BestCost)
	}
	if res.BestCost != 1278 {
		t.Fatalf("ta001 best makespan %.0f, want the proven optimum 1278", res.BestCost)
	}
	d, ok := res.Details.(FlowShopDetails)
	if !ok {
		t.Fatalf("Details is %T, want FlowShopDetails", res.Details)
	}
	if d.Makespan != 1278 || d.Optimum != 1278 || d.LowerBound != 1232 {
		t.Fatalf("details %+v, want makespan 1278, optimum 1278, lower bound 1232", d)
	}
}

// TestDistributedRefusesMismatchedSchedInstance pins the fingerprint
// contract for the scheduling workloads: two random flow shops of the
// same dimensions share a name and a size, so only the deterministic
// initial cost tells them apart — a worker that built the wrong one
// must refuse the job and the master's run must abort, not silently
// search a hybrid problem.
func TestDistributedRefusesMismatchedSchedInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	master, err := ListenMaster("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var workerErr error
	go func() {
		defer wg.Done()
		// Same 18x4 shape, different generator seed: name and size match
		// the master's problem, the schedule matrix does not.
		workerErr = Worker(ctx, RandomFlowShop(18, 4, 2), master.Addr(),
			NodeOptions{Name: "impostor"}, 1, nil)
	}()

	// The iteration budget is deliberately far larger than the abort
	// latency: the refusal must stop the run, not lose a race against a
	// master that finishes before the fJobErr frame lands.
	res, err := Solve(ctx, RandomFlowShop(18, 4, 1),
		WithWorkers(2, 1), WithIterations(500, 40), WithSeed(3),
		WithMaster(master))
	if err != nil {
		t.Fatalf("master run errored instead of unwinding to best-so-far: %v", err)
	}
	// The master's contract on a refusal is crash-only: the run aborts
	// and unwinds as an interrupted best-so-far result, it does not
	// search on without the worker.
	if !res.Interrupted {
		t.Fatalf("master run completed %d rounds against a worker that built a different instance", res.Rounds)
	}
	wg.Wait()
	if workerErr == nil || !strings.Contains(workerErr.Error(), "does not reproduce") {
		t.Errorf("worker error = %v, want the initial-cost fingerprint refusal", workerErr)
	}
}
