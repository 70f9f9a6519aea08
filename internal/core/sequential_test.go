package core

import (
	"testing"

	"pts/internal/cluster"
	"pts/internal/netlist"
)

func TestRunSequentialImproves(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	cfg := quickCfg()
	res, err := RunSequential(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost >= res.InitialCost {
		t.Fatalf("sequential search did not improve: %v -> %v", res.InitialCost, res.BestCost)
	}
	if res.Elapsed <= 0 {
		t.Error("analytic clock did not advance")
	}
	if res.Trace.Len() < 2 {
		t.Error("trace too short")
	}
	if res.Trace.Final() != res.BestCost {
		t.Errorf("trace final %v != best %v", res.Trace.Final(), res.BestCost)
	}
	if res.Stats.LocalIters != int64(cfg.GlobalIters*cfg.LocalIters) {
		t.Errorf("LocalIters = %d, want %d", res.Stats.LocalIters, cfg.GlobalIters*cfg.LocalIters)
	}
}

func TestRunSequentialDeterministic(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	a, err := RunSequential(nl, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSequential(nl, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost || a.Elapsed != b.Elapsed {
		t.Fatal("sequential runs with equal seeds diverged")
	}
}

func TestRunSequentialValidates(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	bad := quickCfg()
	bad.Trials = 0
	if _, err := RunSequential(nl, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunSequentialSharesInitialWithParallel(t *testing.T) {
	// Same seed => same initial solution => same initial cost as the
	// parallel run, so baselines and parallel runs are comparable.
	nl := netlist.MustBenchmark("highway")
	cfg := quickCfg()
	seq, err := RunSequential(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(nl, cluster.Homogeneous(4, 1), cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if seq.InitialCost != par.InitialCost {
		t.Fatalf("initial costs differ: sequential %v vs parallel %v",
			seq.InitialCost, par.InitialCost)
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
