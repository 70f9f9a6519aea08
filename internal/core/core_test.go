package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"pts/internal/cluster"
	"pts/internal/cost"
	"pts/internal/netlist"
)

// runPlacement runs the search over the placement problem of nl.
func runPlacement(nl *netlist.Netlist, clus cluster.Cluster, cfg Config, mode Mode) (*Result, error) {
	return RunProblem(context.Background(), cost.NewPlacementProblem(nl), clus, cfg, mode)
}

// quickCfg returns a small, fast configuration for tests.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.TSWs = 3
	cfg.CLWs = 2
	cfg.GlobalIters = 4
	cfg.LocalIters = 12
	cfg.Trials = 6
	cfg.Depth = 3
	cfg.Seed = 7
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.TSWs = 0 },
		func(c *Config) { c.CLWs = 0 },
		func(c *Config) { c.GlobalIters = 0 },
		func(c *Config) { c.LocalIters = 0 },
		func(c *Config) { c.Trials = 0 },
		func(c *Config) { c.Depth = 0 },
		func(c *Config) { c.Tenure = 0 },
		func(c *Config) { c.DiversifyDepth = -1 },
		func(c *Config) { c.WorkPerTrial = -1 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestAssignmentMapping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSWs, cfg.CLWs = 3, 2
	// PVM round-robin: TSWs on 1..3, then the CLWs group by group.
	if cfg.tswMachine(2) != 3 || cfg.clwMachine(2, 1) != 1+3+2*2+1 {
		t.Fatalf("round-robin mapping wrong: %d %d", cfg.tswMachine(2), cfg.clwMachine(2, 1))
	}
}

func TestRangesPartition(t *testing.T) {
	f := func(nRaw uint16, kRaw uint8) bool {
		n := int32(nRaw%5000) + 1
		k := int(kRaw%16) + 1
		rs := ranges(n, k)
		if len(rs) != k {
			return false
		}
		if rs[0][0] != 0 || rs[k-1][1] != n {
			return false
		}
		for i := 1; i < k; i++ {
			if rs[i][0] != rs[i-1][1] {
				return false
			}
		}
		// Near-equal sizes: max-min <= 1.
		min, max := n, int32(0)
		for _, r := range rs {
			sz := r[1] - r[0]
			if sz < min {
				min = sz
			}
			if sz > max {
				max = sz
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunImprovesCost(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	res, err := runPlacement(nl, cluster.Homogeneous(12, 1), quickCfg(), Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost >= res.InitialCost {
		t.Fatalf("no improvement: %v -> %v", res.InitialCost, res.BestCost)
	}
	if res.Rounds != 4 {
		t.Errorf("rounds = %d, want 4", res.Rounds)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed must be positive in virtual time")
	}
	if res.Stats.MovesAccepted == 0 || res.Stats.LocalIters == 0 {
		t.Errorf("implausible stats: %+v", res.Stats)
	}
}

func TestRunDeterministicVirtual(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	clus := cluster.Testbed12(5)
	cfg := quickCfg()
	a, err := runPlacement(nl, clus, cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPlacement(nl, clus, cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost || a.Elapsed != b.Elapsed {
		t.Fatalf("virtual runs diverged: (%v,%v) vs (%v,%v)",
			a.BestCost, a.Elapsed, b.BestCost, b.Elapsed)
	}
	for i := range a.BestPerm {
		if a.BestPerm[i] != b.BestPerm[i] {
			t.Fatal("best permutations differ between identical runs")
		}
	}
}

// TestVirtualRunCountersPinned pins one fixed-seed virtual run beyond
// its result: the kernel's event count and the message count as well.
// Every event the kernel skips (a sleep that runs on in place) and every
// delivery it reuses must still be counted and ordered as a queued timer
// and a fresh delivery would be, so none of these may move.
func TestVirtualRunCountersPinned(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	res, err := runPlacement(nl, cluster.Testbed12(5), quickCfg(), Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if b := math.Float64bits(res.BestCost); b != 0x3fb3ea674be4b2e0 {
		t.Errorf("BestCost bits %#x, want 0x3fb3ea674be4b2e0", b)
	}
	if b := math.Float64bits(res.Elapsed); b != 0x3fb22905131f7026 {
		t.Errorf("Elapsed bits %#x, want 0x3fb22905131f7026", b)
	}
	if res.Runtime.Events != 3459 || res.Runtime.Sends != 1087 {
		t.Errorf("Runtime.Events %d, Runtime.Sends %d; want 3459, 1087",
			res.Runtime.Events, res.Runtime.Sends)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	clus := cluster.Homogeneous(12, 1)
	cfg := quickCfg()
	a, err := runPlacement(nl, clus, cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := runPlacement(nl, clus, cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost == b.BestCost {
		t.Error("different seeds produced identical best costs (suspicious)")
	}
}

func TestTraceShape(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	res, err := runPlacement(nl, cluster.Homogeneous(12, 1), quickCfg(), Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() < res.Rounds {
		t.Fatalf("trace has %d points for %d rounds", res.Trace.Len(), res.Rounds)
	}
	pts := res.Trace.Points
	if pts[0].Cost != res.InitialCost || pts[0].Time != 0 {
		t.Errorf("first trace point should be the initial solution at t=0: %+v", pts[0])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time < pts[i-1].Time {
			t.Fatal("trace times not nondecreasing")
		}
		if pts[i].Cost > pts[i-1].Cost+1e-12 {
			t.Fatal("incumbent best increased along the trace")
		}
	}
	if got := res.Trace.Final(); got != res.BestCost {
		t.Errorf("trace final %v != best %v", got, res.BestCost)
	}
}

func TestBestPermScoresClose(t *testing.T) {
	// The reported best cost was computed by a worker with slightly
	// stale criticalities; rescoring the permutation exactly must land
	// close (same goals, fresh timing analysis).
	nl := netlist.MustBenchmark("highway")
	pp := cost.NewPlacementProblem(nl)
	res, err := RunProblem(context.Background(), pp, cluster.Homogeneous(12, 1), quickCfg(), Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BestPerm) != nl.NumCells() {
		t.Fatalf("best perm has %d entries, want %d", len(res.BestPerm), nl.NumCells())
	}
	obj, cpd, err := pp.Score(res.BestPerm)
	if err != nil {
		t.Fatalf("best perm does not rescore: %v", err)
	}
	if obj.Wirelength <= 0 || obj.Area <= 0 {
		t.Fatalf("degenerate objectives: %+v", obj)
	}
	if cpd <= 0 {
		t.Error("critical path must be positive")
	}
}

func TestHalfSyncFasterOnHeterogeneousCluster(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	clus := cluster.Testbed12(3)
	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 4, 3
	cfg.GlobalIters, cfg.LocalIters = 4, 15

	cfg.HalfSync = true
	het, err := runPlacement(nl, clus, cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	cfg.HalfSync = false
	hom, err := runPlacement(nl, clus, cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if het.Elapsed >= hom.Elapsed {
		t.Fatalf("half-sync (%.4fs) not faster than full sync (%.4fs)",
			het.Elapsed, hom.Elapsed)
	}
	if het.Stats.ForcedReports == 0 {
		t.Error("half-sync on a heterogeneous cluster forced no reports")
	}
	if hom.Stats.ForcedReports != 0 {
		t.Error("full sync must not force reports")
	}
}

func TestSingleWorkerDegenerate(t *testing.T) {
	// 1 TSW x 1 CLW is the speedup baseline; must run fine.
	nl := netlist.MustBenchmark("highway")
	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 1, 1
	res, err := runPlacement(nl, cluster.Homogeneous(2, 1), cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost >= res.InitialCost {
		t.Fatalf("single worker did not improve: %v -> %v", res.InitialCost, res.BestCost)
	}
	if res.Stats.ForcedReports != 0 {
		t.Error("nothing to force with one child each")
	}
}

func TestDiversificationOffStillWorks(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	cfg := quickCfg()
	cfg.DiversifyDepth = 0
	res, err := runPlacement(nl, cluster.Homogeneous(12, 1), cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Diversifications != 0 {
		t.Error("diversifications counted with DiversifyDepth=0")
	}
	if res.BestCost >= res.InitialCost {
		t.Error("no improvement without diversification")
	}
}

func TestRunRealMode(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	cfg := quickCfg()
	cfg.GlobalIters, cfg.LocalIters = 3, 8
	cfg.WorkPerTrial = 0 // no artificial sleeps in real mode
	res, err := runPlacement(nl, cluster.Homogeneous(4, 1), cfg, Real)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost >= res.InitialCost {
		t.Fatalf("real mode did not improve: %v -> %v", res.InitialCost, res.BestCost)
	}
	if res.Rounds != 3 {
		t.Errorf("rounds = %d", res.Rounds)
	}
}

func TestRunErrors(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	bad := quickCfg()
	bad.TSWs = 0
	if _, err := runPlacement(nl, cluster.Homogeneous(2, 1), bad, Virtual); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := runPlacement(nl, cluster.Cluster{}, quickCfg(), Virtual); err == nil {
		t.Error("invalid cluster accepted")
	}
	if _, err := runPlacement(nl, cluster.Homogeneous(2, 1), quickCfg(), Mode(99)); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	cfg := quickCfg()
	res, err := runPlacement(nl, cluster.Homogeneous(12, 1), cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	maxLocal := int64(cfg.TSWs * cfg.GlobalIters * cfg.LocalIters)
	if res.Stats.LocalIters > maxLocal {
		t.Errorf("LocalIters %d exceeds budget %d", res.Stats.LocalIters, maxLocal)
	}
	if res.Stats.MovesAccepted > res.Stats.LocalIters {
		t.Errorf("accepted %d > iterations %d", res.Stats.MovesAccepted, res.Stats.LocalIters)
	}
	// Every local iteration asks every CLW for one candidate.
	if res.Stats.CandidatesBuilt < res.Stats.LocalIters {
		t.Errorf("candidates %d < iterations %d", res.Stats.CandidatesBuilt, res.Stats.LocalIters)
	}
	if res.Stats.Diversifications != int64(cfg.TSWs*cfg.GlobalIters) {
		t.Errorf("diversifications = %d, want %d",
			res.Stats.Diversifications, cfg.TSWs*cfg.GlobalIters)
	}
}

func TestMoreLocalWorkHelps(t *testing.T) {
	// Sanity for the experiment harness: a 4x larger local iteration
	// budget should not end up markedly worse on the same seed set.
	nl := netlist.MustBenchmark("highway")
	clus := cluster.Homogeneous(12, 1)
	small := quickCfg()
	small.GlobalIters, small.LocalIters = 2, 6
	large := quickCfg()
	large.GlobalIters, large.LocalIters = 2, 48

	s, err := runPlacement(nl, clus, small, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	l, err := runPlacement(nl, clus, large, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if l.BestCost > s.BestCost+0.05 {
		t.Fatalf("8x budget much worse: %v vs %v", l.BestCost, s.BestCost)
	}
	if !(l.Elapsed > s.Elapsed) {
		t.Error("more iterations should take longer")
	}
}

func TestCostsAreComparableAcrossWorkers(t *testing.T) {
	// The master's best must never exceed the initial cost, and the
	// cost must be a valid fuzzy cost.
	nl := netlist.MustBenchmark("highway")
	res, err := runPlacement(nl, cluster.Homogeneous(12, 1), quickCfg(), Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost < 0 || res.BestCost > 1 || math.IsNaN(res.BestCost) {
		t.Fatalf("best cost %v outside [0,1]", res.BestCost)
	}
}
