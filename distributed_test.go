package pts

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// distOpts is the shared search configuration of the cross-transport
// equality tests. Half-sync stays off: with full collection the search
// outcome depends only on the seed-derived random streams (which every
// transport derives from the task spawn paths), not on message timing —
// so the TCP run must reproduce the in-process run exactly.
func distOpts() []Option {
	return []Option{
		WithWorkers(3, 2),
		WithIterations(4, 10),
		WithTabu(10, 6, 3),
		WithSeed(7),
		WithHalfSync(false),
	}
}

// TestDistributedMatchesInProcess is the acceptance gate of the TCP
// transport: a fixed-seed run over loopback TCP — one master plus three
// worker processes with distinct speed factors, one of them
// contributing two machine slots — returns the same best cost (and
// permutation) as the single-process real-mode run, and every worker's
// onJob sees that same result.
func TestDistributedMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	ctx := context.Background()
	newProblem := func() Problem { return RandomQAP(26, 11) }

	single, err := Solve(ctx, newProblem(), append(distOpts(), WithRealTime())...)
	if err != nil {
		t.Fatal(err)
	}

	master, err := ListenMaster("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	// Three workers with the paper's three speed classes; each builds
	// the problem from the same inputs, as separate processes would.
	nodes := []NodeOptions{
		{Name: "node0", Speed: 1.0, Capacity: 1},
		{Name: "node1", Speed: 0.55, Capacity: 1},
		{Name: "node2", Speed: 0.3, Capacity: 2},
	}
	var wg sync.WaitGroup
	workerRes := make([]*Result, len(nodes))
	workerErr := make([]error, len(nodes))
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node NodeOptions) {
			defer wg.Done()
			workerErr[i] = Worker(ctx, newProblem(), master.Addr(), node, 1,
				func(r *Result) { workerRes[i] = r })
		}(i, node)
	}

	dist, err := Solve(ctx, newProblem(), append(distOpts(), WithMaster(master))...)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if dist.BestCost != single.BestCost {
		t.Errorf("best cost differs: TCP %.9f, in-process %.9f", dist.BestCost, single.BestCost)
	}
	if !reflect.DeepEqual(dist.Best, single.Best) {
		t.Error("best permutation differs between TCP and in-process runs")
	}
	if dist.BestCost >= dist.InitialCost {
		t.Error("no improvement over the initial solution")
	}
	if dist.Tasks != single.Tasks || dist.Messages != single.Messages {
		t.Errorf("runtime counters differ: TCP %d tasks/%d msgs, in-process %d/%d",
			dist.Tasks, dist.Messages, single.Tasks, single.Messages)
	}
	for i, wr := range workerRes {
		if workerErr[i] != nil || wr == nil {
			t.Errorf("worker %d: no result (err %v)", i, workerErr[i])
			continue
		}
		if wr.BestCost != dist.BestCost || wr.Rounds != dist.Rounds {
			t.Errorf("worker %d saw best %.9f after %d rounds, master %.9f after %d",
				i, wr.BestCost, wr.Rounds, dist.BestCost, dist.Rounds)
		}
		if !reflect.DeepEqual(wr.Best, dist.Best) {
			t.Errorf("worker %d's best permutation differs from the master's", i)
		}
	}
}

// TestAdaptiveWorkerLossDegradesGracefully is the loss-tolerance
// acceptance gate: under WithAdaptive, killing a CLW-hosting worker
// process mid-run must NOT abort the run — the dead worker's element
// range is folded back into the survivors, a replacement is respawned
// onto surviving capacity (restoring the pre-kill CLW count), and the
// master returns a complete (non-Interrupted) result over the full
// iteration budget.
func TestAdaptiveWorkerLossDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	ctx := context.Background()
	newProblem := func() Problem { return RandomQAP(30, 11) }

	master, err := ListenMaster("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	// Join order fixes the slot ring: with 1 TSW x 3 CLWs over 3
	// workers, machine indices wrap over the worker slots only, so the
	// TSW lands on the first worker, CLWs 0 and 1 on the second and
	// third, and CLW 2 back on the first — so killing the third worker
	// kills exactly one CLW.
	waitJoined := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for len(master.Workers()) < want {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d workers joined", len(master.Workers()), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	type workerOutcome struct {
		res *Result
		err error
	}
	startWorker := func(wctx context.Context, name string, speed float64) chan workerOutcome {
		ch := make(chan workerOutcome, 1)
		go func() {
			var saw *Result
			err := Worker(wctx, newProblem(), master.Addr(),
				NodeOptions{Name: name, Speed: speed}, 1,
				func(r *Result) { saw = r })
			ch <- workerOutcome{saw, err}
		}()
		return ch
	}

	fastCh := startWorker(ctx, "fast", 4)
	waitJoined(1)
	slowCh := startWorker(ctx, "slow", 1)
	waitJoined(2)
	doomedCtx, killDoomed := context.WithCancel(ctx)
	defer killDoomed()
	doomedCh := startWorker(doomedCtx, "doomed", 1)
	waitJoined(3)

	const rounds = 8
	killed := false
	res, err := Solve(ctx, newProblem(),
		WithWorkers(1, 3),
		WithIterations(rounds, 15),
		WithTabu(10, 6, 3),
		WithSeed(7),
		WithHalfSync(false),
		WithAdaptive(true),
		WithWorkScale(2), // stretch rounds so the kill lands mid-run
		WithMaster(master),
		WithProgress(func(s Snapshot) {
			if s.Round == 2 && !killed {
				killed = true
				killDoomed() // kill -9 the CLW host between rounds 2 and 3
			}
		}),
	)
	if err != nil {
		t.Fatalf("adaptive run with a killed worker: %v", err)
	}
	if res.Interrupted {
		t.Fatal("run reported Interrupted; adaptive mode must degrade gracefully")
	}
	if res.Rounds != rounds {
		t.Errorf("completed %d rounds, want the full %d", res.Rounds, rounds)
	}
	if res.Stats.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", res.Stats.WorkersLost)
	}
	if res.Stats.WorkersRespawned != 1 {
		t.Errorf("WorkersRespawned = %d, want 1 (parallelism restored, not just degraded)", res.Stats.WorkersRespawned)
	}
	if res.Stats.Rebalances == 0 {
		t.Error("the dead CLW's range was never re-absorbed (no rebalance adopted)")
	}
	if res.BestCost > res.InitialCost {
		t.Errorf("no improvement: %v -> %v", res.InitialCost, res.BestCost)
	}

	// The survivors see the master's completed result; the doomed worker
	// errors out (its job died under it), which is its expected outcome.
	for name, ch := range map[string]chan workerOutcome{"fast": fastCh, "slow": slowCh} {
		select {
		case o := <-ch:
			if o.err != nil {
				t.Errorf("worker %s: %v", name, o.err)
			} else if o.res == nil || o.res.BestCost != res.BestCost || o.res.Interrupted {
				t.Errorf("worker %s result %+v does not match master best %.9f", name, o.res, res.BestCost)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("worker %s never finished", name)
		}
	}
	select {
	case o := <-doomedCh:
		if o.err == nil && o.res != nil && !o.res.Interrupted {
			t.Error("doomed worker reported a clean completed job after being killed")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("doomed worker never returned")
	}
}

// TestDistributedMasterRestartResumes is the crash-only acceptance
// gate at the process level: a store-backed distributed run whose
// master is cancelled mid-run is picked up by a fresh master — new
// port, new worker processes — over the same state directory, and
// finishes with the same best solution as the run left uninterrupted.
func TestDistributedMasterRestartResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	ctx := context.Background()
	newProblem := func() Problem { return RandomQAP(24, 5) }
	searchOpts := func() []Option {
		return []Option{
			WithWorkers(2, 2),
			WithIterations(6, 10),
			WithTabu(10, 6, 3),
			WithSeed(7),
			WithHalfSync(false),
		}
	}

	// The reference outcome: the same store-backed configuration left
	// uninterrupted. Single-process real mode suffices — with half-sync
	// off the TCP runs reproduce it exactly.
	ref, err := Solve(ctx, newProblem(),
		append(searchOpts(), WithRealTime(), WithStore(NewMemStore()))...)
	if err != nil {
		t.Fatal(err)
	}

	st, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// runPhase starts a fresh master and two fresh worker processes over
	// st; interruptAt > 0 cancels the master mid-run at that round.
	runPhase := func(interruptAt int) *Result {
		t.Helper()
		master, err := ListenMaster("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer master.Close()

		wctx, wcancel := context.WithTimeout(ctx, time.Minute)
		defer wcancel()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// An interrupted phase kills the job under its workers;
				// their error (if any) is that phase's expected outcome.
				_ = Worker(wctx, newProblem(), master.Addr(),
					NodeOptions{Name: fmt.Sprintf("node%d", i), Speed: 1}, 1,
					func(*Result) {})
			}(i)
		}

		mctx, cancel := context.WithCancel(ctx)
		defer cancel()
		opts := append(searchOpts(),
			WithStore(st),
			WithMaster(master),
		)
		if interruptAt > 0 {
			opts = append(opts, WithProgress(func(s Snapshot) {
				if s.Round == interruptAt {
					cancel() // the "crash": the master abandons the run mid-budget
				}
			}))
		}
		res, err := Solve(mctx, newProblem(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		wcancel()
		wg.Wait()
		return res
	}

	first := runPhase(2)
	if !first.Interrupted {
		t.Fatal("first master run was not interrupted")
	}
	if first.Rounds >= 6 {
		t.Fatalf("first master run completed all %d rounds, wanted a mid-run stop", first.Rounds)
	}

	resumed := runPhase(0)
	if resumed.Interrupted {
		t.Fatal("resumed run reported Interrupted")
	}
	if resumed.Rounds != 6 {
		t.Errorf("resumed run completed %d rounds, want the full 6", resumed.Rounds)
	}
	if resumed.BestCost != ref.BestCost {
		t.Errorf("resumed best %.9f != uninterrupted best %.9f", resumed.BestCost, ref.BestCost)
	}
	if !reflect.DeepEqual(resumed.Best, ref.Best) {
		t.Error("resumed best permutation differs from the uninterrupted run's")
	}
	// Clean completion deletes the snapshot: a later run starts fresh.
	if _, ok, _ := st.Get("runs/run"); ok {
		t.Error("snapshot survived clean completion")
	}
}

// TestDistributedOptionValidation pins the configuration errors.
func TestDistributedOptionValidation(t *testing.T) {
	master, err := ListenMaster("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, err := Solve(context.Background(), RandomQAP(8, 1), WithMaster(master), WithVirtualTime()); err == nil {
		t.Error("WithMaster + WithVirtualTime accepted")
	}
	if m, err := ListenMaster("127.0.0.1:0", 0); err == nil {
		m.Close()
		t.Error("ListenMaster with zero workers accepted")
	}
}
