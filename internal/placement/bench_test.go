package placement

import (
	"math/rand"
	"testing"

	"pts/internal/netlist"
)

// The hot-path microbenchmarks of the trial-evaluation kernel, run on
// the paper's c532-scale synthetic circuit (395 cells). These are the
// numbers cmd/ptsbench -hotpath reports and the CI alloc-regression
// test guards; regenerate the recorded results with
//
//	go test ./internal/placement ./internal/cost -bench 'SwapDelta|ApplySwap' -benchmem
func benchPlacement(b *testing.B, circuit string) *Placement {
	b.Helper()
	nl := netlist.MustBenchmark(circuit)
	p, err := New(nl, AutoLayout(nl, 0.9))
	if err != nil {
		b.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(1)))
	return p
}

// benchPairs is the shared deterministic trial workload.
func benchPairs(n int, cells int) [][2]netlist.CellID {
	return netlist.BenchmarkPairs(n, cells)
}

func BenchmarkSwapDeltaHPWL(b *testing.B) {
	for _, circuit := range []string{"c532", "c1355"} {
		b.Run(circuit, func(b *testing.B) {
			p := benchPlacement(b, circuit)
			pairs := benchPairs(1024, p.Netlist().NumCells())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr := pairs[i&1023]
				p.HPWLDeltaSwap(pr[0], pr[1])
			}
		})
	}
}

func BenchmarkMaxRowWidthAfterSwap(b *testing.B) {
	p := benchPlacement(b, "c532")
	pairs := benchPairs(1024, p.Netlist().NumCells())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i&1023]
		p.MaxRowWidthAfterSwap(pr[0], pr[1])
	}
}

// BenchmarkSwapObjectivesBatch isolates the placement batch kernel from
// the cost-layer membership fold; its ns/trial versus
// cost.BenchmarkDeltaSwapBatch's shows where batch time goes.
func BenchmarkSwapObjectivesBatch(b *testing.B) {
	const batch = 64
	for _, circuit := range []string{"c532", "c1355"} {
		b.Run(circuit, func(b *testing.B) {
			p := benchPlacement(b, circuit)
			pairs := benchPairs(1024, p.Netlist().NumCells())
			w := make([]float64, p.Netlist().NumNets())
			for i := range w {
				w[i] = 1 / float64(i+1)
			}
			batches := make([][]SwapCand, len(pairs)/batch)
			for bi := range batches {
				cands := make([]SwapCand, batch)
				for i := range cands {
					pr := pairs[bi*batch+i]
					cands[i] = SwapCand{A: pr[0], B: pr[1]}
				}
				batches[bi] = cands
			}
			dLen := make([]float64, batch)
			dW := make([]float64, batch)
			area := make([]float64, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.SwapObjectivesBatch(batches[i%len(batches)], w, dLen, dW, area)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/trial")
		})
	}
}

func BenchmarkApplySwap(b *testing.B) {
	p := benchPlacement(b, "c532")
	pairs := benchPairs(1024, p.Netlist().NumCells())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i&1023]
		p.SwapCells(pr[0], pr[1])
	}
}
