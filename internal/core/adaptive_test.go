package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pts/internal/cluster"
	"pts/internal/netlist"
	"pts/internal/pvm"
	"pts/internal/qap"
)

// qapTestProblem adapts internal/qap to the core Problem boundary for
// tests that want a tiny, netlist-free instance.
type qapTestProblem struct {
	ins *qap.Instance
}

func (q *qapTestProblem) Name() string { return fmt.Sprintf("qap%d", q.ins.N) }
func (q *qapTestProblem) Size() int32  { return int32(q.ins.N) }
func (q *qapTestProblem) Initial(seed uint64) (State, error) {
	return qap.NewState(q.ins, seed), nil
}
func (q *qapTestProblem) NewState(snap []int32) (State, error) {
	return qap.NewStateAt(q.ins, snap)
}

func TestRangesMoreWorkersThanElements(t *testing.T) {
	rs := ranges(3, 5)
	want := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 3}, {3, 3}}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("ranges(3,5)[%d] = %v, want %v", i, rs[i], want[i])
		}
	}
	// k == n stays the exact equal split.
	for i, r := range ranges(4, 4) {
		if r[0] != int32(i) || r[1] != int32(i+1) {
			t.Fatalf("ranges(4,4)[%d] = %v", i, r)
		}
	}
}

// TestCLWClampWhenWorkersExceedElements is the regression test for the
// degenerate-range bug: with more CLWs than elements the extra workers
// used to be spawned with empty ranges (which the compound builder then
// silently widened to the whole space, breaking the domain
// decomposition). They must now be skipped entirely.
func TestCLWClampWhenWorkersExceedElements(t *testing.T) {
	prob := &qapTestProblem{ins: qap.Random(5, 2)}
	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 2, 8 // 8 CLWs over 5 elements
	cfg.GlobalIters, cfg.LocalIters = 3, 8

	res, err := RunProblem(context.Background(), prob, cluster.Homogeneous(4, 1), cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost > res.InitialCost {
		t.Errorf("search got worse: %v -> %v", res.InitialCost, res.BestCost)
	}
	// Spawns: the root master, 2 TSWs, and per TSW only min(CLWs, n)=5
	// CLWs — not the configured 8.
	want := int64(1 + 2 + 2*5)
	if res.Runtime.Spawns != want {
		t.Errorf("spawned %d tasks, want %d (empty-range CLWs must be skipped)",
			res.Runtime.Spawns, want)
	}
}

// TestCLWForcedReportPath drives a CLW directly through the
// TagReportNow forced-report protocol (satellite of the heterogeneity
// adaptation): the force must truncate candidate construction, mark the
// candidate and the worker's counters, and — the part only exercised
// incidentally before — leave the CLW's private state consistent with
// its parent's after the following sync.
func TestCLWForcedReportPath(t *testing.T) {
	prob := &qapTestProblem{ins: qap.Random(16, 3)}
	cfg := DefaultConfig()
	cfg.Trials, cfg.Depth, cfg.Tenure = 4, 8, 5
	cfg.Seed = 1
	st0, err := prob.Initial(1)
	if err != nil {
		t.Fatal(err)
	}
	initPerm := st0.Snapshot()

	var clwStats WorkerStats
	var forcedCand candMsg
	consistent := true
	var deltaGap float64
	root := func(env pvm.Env) {
		id := env.Spawn("clw0", 1, func(e pvm.Env) { clwRun(e, prob, cfg) })
		env.Send(id, TagInit, initMsg{Perm: initPerm, RangeLo: 0, RangeHi: prob.Size(), WorkerIdx: 0})

		// Force lands while the compound move is being built: the CLW
		// polls TagReportNow between depth steps.
		env.Send(id, TagSearch, nil)
		env.Send(id, TagReportNow, nil)
		forcedCand = env.Recv(TagCandidate).Data.(candMsg)

		// Declare the forced candidate the winner and mirror it on our own
		// state copy, exactly like the TSW does.
		env.Send(id, TagSync, syncMsg{Chosen: forcedCand.Move})
		mine, err := prob.NewState(initPerm)
		if err != nil {
			t.Error(err)
			return
		}
		forcedCand.Move.Apply(mine)

		// A consistent CLW must now score its next candidate exactly as we
		// do: replay its reported swaps on our copy and compare deltas.
		env.Send(id, TagSearch, nil)
		next := env.Recv(TagCandidate).Data.(candMsg)
		sum := 0.0
		for _, s := range next.Move.Swaps {
			sum += mine.DeltaSwap(s.A, s.B)
			mine.ApplySwap(s.A, s.B)
		}
		deltaGap = math.Abs(sum - next.Move.Delta)
		consistent = deltaGap <= 1e-9
		env.Send(id, TagSync, syncMsg{Chosen: next.Move})

		env.Send(id, TagStop, nil)
		clwStats = env.Recv(TagStats).Data.(WorkerStats)
	}
	if _, err := pvm.RunVirtual(pvm.Options{Seed: 1, Cluster: cluster.Homogeneous(2, 1)}, root); err != nil {
		t.Fatal(err)
	}

	if !forcedCand.Forced {
		t.Error("candidate not marked Forced after TagReportNow")
	}
	if clwStats.ForcedReports != 1 {
		t.Errorf("ForcedReports = %d, want 1", clwStats.ForcedReports)
	}
	if clwStats.CandidatesBuilt != 2 {
		t.Errorf("CandidatesBuilt = %d, want 2", clwStats.CandidatesBuilt)
	}
	if !consistent {
		t.Errorf("CLW state inconsistent after forced round: replayed delta differs by %v", deltaGap)
	}
	if forcedCand.CumTrials <= 0 {
		t.Error("forced candidate carries no throughput observation")
	}
}

// TestForcedReportsAcrossRunStayConsistent runs the half-sync
// configuration end to end on a speed-skewed cluster and pins the
// forced-report path's global guarantees: forces happen, the run stays
// deterministic, and the final best is a valid solution (Run rescores
// it exactly and errors on corruption).
func TestForcedReportsAcrossRunStayConsistent(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	clus := cluster.Testbed12(3)
	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 3, 3
	cfg.GlobalIters, cfg.LocalIters = 3, 12
	cfg.HalfSync = true

	a, err := runPlacement(nl, clus, cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.ForcedReports == 0 {
		t.Fatal("no forced reports on a skewed cluster with half-sync on")
	}
	b, err := runPlacement(nl, clus, cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost || a.Stats.ForcedReports != b.Stats.ForcedReports {
		t.Errorf("forced-report path not deterministic: (%v,%d) vs (%v,%d)",
			a.BestCost, a.Stats.ForcedReports, b.BestCost, b.Stats.ForcedReports)
	}
}

func TestAdaptiveVirtualDeterministic(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	clus := cluster.Testbed12(5) // mixed speeds and loads: shares drift
	cfg := quickCfg()
	cfg.CLWs = 3
	cfg.Adaptive = true

	a, err := runPlacement(nl, clus, cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPlacement(nl, clus, cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost || a.Elapsed != b.Elapsed {
		t.Fatalf("adaptive virtual runs diverged: (%v,%v) vs (%v,%v)",
			a.BestCost, a.Elapsed, b.BestCost, b.Elapsed)
	}
	for i := range a.BestPerm {
		if a.BestPerm[i] != b.BestPerm[i] {
			t.Fatal("adaptive best permutations differ between identical runs")
		}
	}
	if a.BestCost >= a.InitialCost {
		t.Errorf("adaptive run did not improve: %v -> %v", a.InitialCost, a.BestCost)
	}
	// On a loaded, speed-skewed cluster the tracker must adopt at least
	// one re-partition over the run.
	if a.Stats.Rebalances == 0 {
		t.Error("adaptive run on a skewed cluster adopted no rebalances")
	}
}

func TestAdaptiveSharesInProgress(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	cfg := quickCfg()
	cfg.Adaptive = true
	var lastShares []float64
	rounds := 0
	cfg.Progress = func(s Snapshot) {
		rounds++
		lastShares = s.Shares
	}
	if _, err := runPlacement(nl, cluster.Testbed12(5), cfg, Virtual); err != nil {
		t.Fatal(err)
	}
	if rounds != cfg.GlobalIters {
		t.Fatalf("progress rounds = %d, want %d", rounds, cfg.GlobalIters)
	}
	if len(lastShares) != cfg.TSWs {
		t.Fatalf("snapshot shares = %v, want one per TSW", lastShares)
	}
	sum := 0.0
	for _, s := range lastShares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}

	// Static mode must not report shares.
	cfg.Adaptive = false
	cfg.Progress = func(s Snapshot) { lastShares = s.Shares }
	if _, err := runPlacement(nl, cluster.Testbed12(5), cfg, Virtual); err != nil {
		t.Fatal(err)
	}
	if lastShares != nil {
		t.Errorf("static run reported shares %v", lastShares)
	}
}

// TestAdaptiveSeedsFromMachineSpeeds pins the speed-proportional
// seeding: on a 4:1:1:1 cluster the master's first snapshot already
// reports a skewed share vector (before any throughput was observed).
// skewedGroupCluster builds the 4:1 test platform: machine 0 hosts the
// master, machines 1-3 the TSWs at speeds 4/1/1, and machines 4-6 each
// TSW's single CLW on a machine of the same speed — whole groups are
// genuinely fast or slow.
func skewedGroupCluster() cluster.Cluster {
	speeds := []float64{1, 4, 1, 1, 4, 1, 1}
	ms := make([]cluster.Machine, len(speeds))
	for i, s := range speeds {
		ms[i] = cluster.Machine{Name: fmt.Sprintf("g%d", i), Speed: s}
	}
	base := cluster.Homogeneous(1, 1)
	return cluster.Cluster{Machines: ms, SendLatency: base.SendLatency, PerItem: base.PerItem}
}

func TestAdaptiveSeedsFromMachineSpeeds(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 3, 1
	// Trial-work-dominated rounds: modeled message latency is speed
	// independent, so tiny budgets would compress the measured ratios.
	cfg.Trials = 48
	cfg.Adaptive = true
	var first []float64
	cfg.Progress = func(s Snapshot) {
		if first == nil {
			first = append([]float64(nil), s.Shares...)
		}
	}
	if _, err := runPlacement(nl, skewedGroupCluster(), cfg, Virtual); err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 {
		t.Fatalf("first shares = %v", first)
	}
	if first[0] < first[1]*2 {
		t.Errorf("4x machine seeded share %v not clearly above 1x share %v", first[0], first[1])
	}
}

// TestAdaptiveFullSyncKeepsSpeedSkew pins the master-level throughput
// signal under full synchronization: every TSW completes identical
// per-round work there, so only the per-round completion latency
// discriminates — the speed-seeded skew must survive the run instead
// of decaying toward an equal split.
func TestAdaptiveFullSyncKeepsSpeedSkew(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 3, 1
	cfg.GlobalIters, cfg.LocalIters = 6, 15
	cfg.Trials = 48 // work-dominated rounds (see TestAdaptiveSeedsFromMachineSpeeds)
	cfg.HalfSync = false
	cfg.Adaptive = true
	var last []float64
	cfg.Progress = func(s Snapshot) { last = append(last[:0], s.Shares...) }
	if _, err := runPlacement(nl, skewedGroupCluster(), cfg, Virtual); err != nil {
		t.Fatal(err)
	}
	if len(last) != 3 {
		t.Fatalf("final shares = %v", last)
	}
	if last[0] < last[1]*2 || last[0] < last[2]*2 {
		t.Errorf("full-sync run decayed the 4x TSW's share: final shares %v", last)
	}
}
