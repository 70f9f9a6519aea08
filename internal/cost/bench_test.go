package cost

import (
	"math/rand"
	"testing"

	"pts/internal/netlist"
	"pts/internal/placement"
)

// Full-evaluator trial benchmarks: the exact per-trial work a CLW does
// (wirelength + criticality-weighted delay + area, fuzzy-combined).
// This is the kernel whose throughput bounds the whole parallel
// search's iteration rate.

func benchEvaluator(b testing.TB, circuit string) *Evaluator {
	b.Helper()
	nl := netlist.MustBenchmark(circuit)
	p, err := placement.New(nl, placement.AutoLayout(nl, 0.9))
	if err != nil {
		b.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(1)))
	ev, err := NewEvaluator(p, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// benchCellPairs is the shared deterministic trial workload.
func benchCellPairs(n, cells int) [][2]netlist.CellID {
	return netlist.BenchmarkPairs(n, cells)
}

// TestTrialEvaluationAllocFree asserts the full evaluator trial —
// wirelength + weighted delay + area + fuzzy combine — its commit and
// the full refresh at synchronization points allocate nothing; this is
// the assertion the CI bench-smoke job enforces.
func TestTrialEvaluationAllocFree(t *testing.T) {
	ev := benchEvaluator(t, "c532")
	a, c := netlist.CellID(3), netlist.CellID(251)
	for name, fn := range map[string]func(){
		"SwapDelta": func() { ev.SwapDelta(a, c) },
		"ApplySwap": func() { ev.ApplySwap(a, c) },
		"Refresh":   ev.Refresh,
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, allocs)
		}
	}
}

func BenchmarkSwapDelta(b *testing.B) {
	for _, circuit := range []string{"c532", "c1355"} {
		b.Run(circuit, func(b *testing.B) {
			ev := benchEvaluator(b, circuit)
			pairs := benchCellPairs(1024, int(ev.NumCells()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr := pairs[i&1023]
				ev.SwapDelta(pr[0], pr[1])
			}
		})
	}
}

func BenchmarkApplySwap(b *testing.B) {
	ev := benchEvaluator(b, "c532")
	pairs := benchCellPairs(1024, int(ev.NumCells()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i&1023]
		ev.ApplySwap(pr[0], pr[1])
	}
}

// BenchmarkRestore times a barrier restore of c532's initial solution
// served from the run's state cache (hit) against a full import and
// timing analysis (miss), and the same for spawning a worker state.
func BenchmarkRestore(b *testing.B) {
	pp := NewPlacementProblem(netlist.MustBenchmark("c532"))
	init, err := pp.Initial(1)
	if err != nil {
		b.Fatal(err)
	}
	perm := init.Snapshot()
	prob := init.(Problem).Clone()
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = prob.Restore(perm)
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = prob.Ev.ImportPerm(perm)
		}
	})
	b.Run("newstate-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = pp.NewState(perm)
		}
	})
	b.Run("newstate-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp.cache.reset()
			_, _ = pp.NewState(perm)
		}
	})
}
