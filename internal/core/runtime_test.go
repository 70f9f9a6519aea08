package core

import (
	"testing"

	"pts/internal/cluster"
	"pts/internal/netlist"
)

func TestRuntimeCountersPopulated(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	cfg := quickCfg()
	res, err := runPlacement(nl, cluster.Homogeneous(12, 1), cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	wantTasks := int64(1 + cfg.TSWs + cfg.TSWs*cfg.CLWs) // master + TSWs + CLWs
	if res.Runtime.Spawns != wantTasks {
		t.Errorf("Spawns = %d, want %d", res.Runtime.Spawns, wantTasks)
	}
	if res.Runtime.Sends == 0 || res.Runtime.Events == 0 {
		t.Errorf("counters empty: %+v", res.Runtime)
	}
	// Lower bound on messages: every local iteration sends TagSearch to
	// each CLW and receives one candidate back.
	minSends := 2 * res.Stats.LocalIters
	if res.Runtime.Sends < minSends {
		t.Errorf("Sends = %d, below protocol minimum %d", res.Runtime.Sends, minSends)
	}
}

func TestCLWLevelHalfSyncOnly(t *testing.T) {
	// One TSW with several CLWs on a heterogeneous cluster: forcing can
	// only happen at the CLW level (a single TSW is never forced — the
	// master's half of one is one).
	nl := netlist.MustBenchmark("highway")
	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 1, 4
	cfg.GlobalIters, cfg.LocalIters = 3, 20
	res, err := runPlacement(nl, cluster.Testbed12(7), cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	// All local iterations must have completed: nothing forces a lone TSW.
	if res.Stats.LocalIters != int64(cfg.GlobalIters*cfg.LocalIters) {
		t.Errorf("LocalIters = %d, want %d (a single TSW must never be cut short)",
			res.Stats.LocalIters, cfg.GlobalIters*cfg.LocalIters)
	}
	if res.BestCost >= res.InitialCost {
		t.Error("no improvement")
	}
}

func TestMessageVolumeScalesWithWorkers(t *testing.T) {
	nl := netlist.MustBenchmark("highway")
	clus := cluster.Homogeneous(12, 1)
	run := func(clws int) int64 {
		cfg := quickCfg()
		cfg.CLWs = clws
		res, err := runPlacement(nl, clus, cfg, Virtual)
		if err != nil {
			t.Fatal(err)
		}
		return res.Runtime.Sends
	}
	if !(run(4) > run(1)) {
		t.Error("more CLWs should exchange more messages")
	}
}
