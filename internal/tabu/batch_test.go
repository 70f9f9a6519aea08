package tabu_test

import (
	"math"
	"testing"

	"pts/internal/rng"
	"pts/internal/tabu"
)

// Equivalence oracles for the batched hot path: BuildCompoundBatch and
// SelectAdmissibleBatch must be bit-for-bit indistinguishable from their
// scalar reference implementations — same moves, same deltas, same
// random-stream consumption, same verdicts.

// buildEquiv runs the scalar builder on a *math/rand.Rand and the
// batched builder on a *rng.SplitMix64 (drawn from directly) and on a
// *math/rand.Rand (drawn from through the Intner interface), each over
// its own identically seeded problem, and asserts all three are
// indistinguishable, including in how much of the random stream they
// consumed.
func buildEquiv(t *testing.T, mk func() tabu.Problem, seed uint64, p tabu.CompoundParams, step func(calls *int) func() bool) {
	t.Helper()
	batchEquiv(t, mk, seed, p, step, rng.NewSplitMix64(seed))
	batchEquiv(t, mk, seed, p, step, rng.New(seed))
}

// batchEquiv is buildEquiv for one batched builder's stream r2, seeded
// like the scalar builder's.
func batchEquiv(t *testing.T, mk func() tabu.Problem, seed uint64, p tabu.CompoundParams,
	step func(calls *int) func() bool, r2 interface {
		tabu.Intner
		Int63() int64
	}) {
	t.Helper()
	p1, p2 := mk(), mk()
	r1 := rng.New(seed)
	var sc tabu.BatchScratch
	var c1, c2 int
	var s1, s2 func() bool
	if step != nil {
		s1, s2 = step(&c1), step(&c2)
	}
	m1 := tabu.BuildCompound(p1, r1, p, s1)
	m2 := tabu.BuildCompoundBatch(p2, r2, p, &sc, s2)
	if len(m1.Swaps) != len(m2.Swaps) {
		t.Fatalf("params %+v: scalar built %d swaps, batch %d", p, len(m1.Swaps), len(m2.Swaps))
	}
	for i := range m1.Swaps {
		if m1.Swaps[i] != m2.Swaps[i] {
			t.Fatalf("params %+v: swap %d differs: %v vs %v", p, i, m1.Swaps[i], m2.Swaps[i])
		}
	}
	if math.Float64bits(m1.Delta) != math.Float64bits(m2.Delta) {
		t.Fatalf("params %+v: delta %v vs %v (bit mismatch)", p, m1.Delta, m2.Delta)
	}
	if math.Float64bits(p1.Cost()) != math.Float64bits(p2.Cost()) {
		t.Fatalf("params %+v: post-move cost %v vs %v", p, p1.Cost(), p2.Cost())
	}
	if c1 != c2 {
		t.Fatalf("params %+v: step callback ran %d vs %d times", p, c1, c2)
	}
	// Same stream position: the builders must have drawn identically.
	if a, b := r1.Int63(), r2.Int63(); a != b {
		t.Fatalf("params %+v: random streams diverged (%d vs %d)", p, a, b)
	}
}

func TestBuildCompoundBatchMatchesScalar(t *testing.T) {
	domains := []struct {
		name string
		mk   func() tabu.Problem
	}{
		{"qap", func() tabu.Problem { return qapProblem(t, 30, 17) }},
		{"placement", func() tabu.Problem { return placementProblem(t, 60, 17) }},
	}
	params := []tabu.CompoundParams{
		{Trials: 1, Depth: 1},
		{Trials: 8, Depth: 3},                            // engine defaults: below the sort threshold
		{Trials: 40, Depth: 5},                           // above batchSortMin: sorted visit order
		{Trials: 25, Depth: 2, RangeLo: 5, RangeHi: 12},  // domain-decomposed range
		{Trials: 13, Depth: 4, RangeLo: 20, RangeHi: 21}, // single-cell range: many a==b degenerates
	}
	for _, dom := range domains {
		t.Run(dom.name, func(t *testing.T) {
			for _, p := range params {
				for seed := uint64(0); seed < 8; seed++ {
					buildEquiv(t, dom.mk, 100+seed, p, nil)
					// And with an interrupting step callback.
					cut := int(seed%3) + 1
					buildEquiv(t, dom.mk, 200+seed, p, func(calls *int) func() bool {
						return func() bool { *calls++; return *calls >= cut }
					})
				}
			}
		})
	}
}

// randomMoves builds a candidate slice with empties, tabu-listed and
// fresh moves, deterministic in seed.
func randomMoves(seed uint64, n int, list *tabu.List, iter int64) []tabu.CompoundMove {
	r := rng.New(seed)
	cands := make([]tabu.CompoundMove, n)
	for i := range cands {
		if r.Intn(6) == 0 {
			continue // empty candidate (failed CLW)
		}
		depth := 1 + r.Intn(3)
		m := tabu.CompoundMove{Swaps: make([]tabu.Swap, depth)}
		for d := range m.Swaps {
			a, b := int32(r.Intn(50)), int32(r.Intn(50))
			m.Swaps[d] = tabu.Swap{A: a, B: b}
			if r.Intn(2) == 0 { // half the attributes go tabu
				list.Add(tabu.Attr(a, b), iter+1+int64(r.Intn(9)))
			}
		}
		m.Delta = r.NormFloat64()
		cands[i] = m
	}
	return cands
}

func TestSelectAdmissibleBatchMatchesScalar(t *testing.T) {
	var sc tabu.SelectScratch
	for seed := uint64(0); seed < 400; seed++ {
		list := tabu.NewList()
		iter := int64(10)
		n := 1 + int(seed%24) // crosses the scalar's 16-entry stack buffer
		cands := randomMoves(seed, n, list, iter)
		r := rng.New(seed + 9000)
		curCost := r.Float64()
		bestCost := curCost - r.Float64() // sometimes reachable by aspiration
		v1 := tabu.SelectAdmissible(cands, curCost, bestCost, list, iter)
		v2 := tabu.SelectAdmissibleBatch(cands, curCost, bestCost, list, iter, &sc)
		if v1 != v2 {
			t.Fatalf("seed %d (n=%d): scalar verdict %+v, batch %+v", seed, n, v1, v2)
		}
	}
}

func TestSelectAdmissibleBatchAllEmpty(t *testing.T) {
	var sc tabu.SelectScratch
	cands := make([]tabu.CompoundMove, 4)
	v := tabu.SelectAdmissibleBatch(cands, 1, 0.5, tabu.NewList(), 3, &sc)
	if v.Index != -1 {
		t.Fatalf("verdict on all-empty candidates: %+v", v)
	}
}

// TestEvalDeltaBatchScalarFallback exercises the evaluator-boundary
// fallback for problems without a batch kernel.
type scalarOnly struct{ tabu.Problem }

func TestEvalDeltaBatchScalarFallback(t *testing.T) {
	prob := scalarOnly{qapProblem(t, 20, 3)}
	cands := []tabu.SwapCand{{A: 1, B: 2}, {A: 3, B: 3}, {A: 0, B: 19}}
	out := make([]float64, len(cands))
	tabu.EvalDeltaBatch(prob, cands, out)
	for i, c := range cands {
		want := prob.DeltaSwap(c.A, c.B)
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("cand %d: fallback %v, scalar %v", i, out[i], want)
		}
	}
}
