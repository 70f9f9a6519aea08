package cost

import (
	"math"
	"math/rand"
	"testing"

	"pts/internal/tabu"
)

// TestDeltaSwapBatchMatchesScalar fuzzes the batched evaluator path
// against SwapDelta: random batches (including degenerate a==b
// candidates and sizes straddling the placement kernel's sort
// threshold), each output compared bit-for-bit, with the evaluator
// mutating between batches so many placements and maintained costs are
// covered.
func TestDeltaSwapBatchMatchesScalar(t *testing.T) {
	ev := benchEvaluator(t, "c532")
	prob := Problem{Ev: ev}
	r := rand.New(rand.NewSource(41))
	cells := int(ev.NumCells())
	const maxBatch = 64
	cands := make([]tabu.SwapCand, 0, maxBatch)
	out := make([]float64, maxBatch)
	for batch := 0; batch < 1000; batch++ {
		n := 1 + r.Intn(maxBatch)
		cands = cands[:0]
		for i := 0; i < n; i++ {
			cands = append(cands, tabu.SwapCand{
				A: int32(r.Intn(cells)),
				B: int32(r.Intn(cells)), // a == b allowed
			})
		}
		prob.DeltaSwapBatch(cands, out[:n])
		for i, c := range cands {
			want := prob.DeltaSwap(c.A, c.B)
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("batch %d cand %d (%d,%d): batch %v, scalar %v",
					batch, i, c.A, c.B, out[i], want)
			}
		}
		prob.ApplySwap(int32(r.Intn(cells)), int32(r.Intn(cells)))
		if batch%200 == 199 {
			prob.Refresh() // move the goals' operating point too
		}
	}
}

// TestDeltaSwapBatchAllocFree asserts the batched trial path allocates
// nothing once the evaluator's scratch is warm; the CI bench-smoke job
// enforces the same contract by numbers.
func TestDeltaSwapBatchAllocFree(t *testing.T) {
	ev := benchEvaluator(t, "c532")
	r := rand.New(rand.NewSource(2))
	cells := int(ev.NumCells())
	cands := make([]tabu.SwapCand, 64)
	for i := range cands {
		cands[i] = tabu.SwapCand{A: int32(r.Intn(cells)), B: int32(r.Intn(cells))}
	}
	out := make([]float64, len(cands))
	ev.DeltaSwapBatch(cands, out) // warm batch scratch
	if allocs := testing.AllocsPerRun(200, func() {
		ev.DeltaSwapBatch(cands, out)
	}); allocs != 0 {
		t.Errorf("DeltaSwapBatch allocates %.1f per batch, want 0", allocs)
	}
}

// BenchmarkDeltaSwapBatch measures the batched trial kernel at the
// engine's hot-path batch size; ns/op is per 64-candidate batch and the
// ns/trial metric is the directly comparable counterpart of
// BenchmarkSwapDelta's ns/op.
func BenchmarkDeltaSwapBatch(b *testing.B) {
	const batch = 64
	for _, circuit := range []string{"c532", "c1355"} {
		b.Run(circuit, func(b *testing.B) {
			ev := benchEvaluator(b, circuit)
			pairs := benchCellPairs(1024, int(ev.NumCells()))
			// Pre-built rotating batches: the same 1024-pair workload the
			// scalar benchmark draws from, grouped 64 at a time, so the
			// timer sees only the kernel.
			batches := make([][]tabu.SwapCand, len(pairs)/batch)
			for bi := range batches {
				cands := make([]tabu.SwapCand, batch)
				for i := range cands {
					pr := pairs[bi*batch+i]
					cands[i] = tabu.SwapCand{A: int32(pr[0]), B: int32(pr[1])}
				}
				batches[bi] = cands
			}
			out := make([]float64, batch)
			ev.DeltaSwapBatch(batches[0], out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.DeltaSwapBatch(batches[i%len(batches)], out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/trial")
		})
	}
}
