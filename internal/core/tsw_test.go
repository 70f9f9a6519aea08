package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"pts/internal/cluster"
	"pts/internal/jobshop"
	"pts/internal/qap"
	"pts/internal/rng"
	"pts/internal/schedinst"
	"pts/internal/tabu"
)

// TestTabuMemoryBites runs one TSW driving one CLW on virtual time over
// a tiny QAP with a tenure longer than the number of distinct swaps, so
// the short-term memory must reject moves and the aspiration criterion
// must override it at least once over the seed list.
func TestTabuMemoryBites(t *testing.T) {
	var rejected, aspired int64
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		cfg := quickCfg()
		cfg.TSWs, cfg.CLWs = 1, 1
		cfg.Tenure = 30
		cfg.Trials, cfg.Depth = 8, 2
		cfg.Seed = seed
		prob := &qapTestProblem{ins: qap.Random(8, seed)}
		res, err := RunProblem(context.Background(), prob, cluster.Homogeneous(2, 1), cfg, Virtual)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.TabuRejected == 0 {
			t.Errorf("seed %d: no tabu rejection on a tiny problem with long tenure", seed)
		}
		rejected += res.Stats.TabuRejected
		aspired += res.Stats.Aspirations
	}
	t.Logf("over the seed list: %d tabu rejections, %d aspirations", rejected, aspired)
	if aspired == 0 {
		t.Fatal("no aspiration over the seed list: the criterion never fires")
	}
}

// TestDiversifyMovesLeastFrequent pins diversify's contract: each forced
// swap moves the least-moved element of [lo, hi) to a partner inside the
// same range, bumps the frequency memory and makes the applied attribute
// tabu; a range narrower than two elements leaves everything untouched.
func TestDiversifyMovesLeastFrequent(t *testing.T) {
	const lo, hi, iter = 4, 12, 100
	cfg := quickCfg()
	cfg.DiversifyDepth = 1
	for seed := uint64(1); seed <= 20; seed++ {
		prob := qap.NewState(qap.Random(20, seed), seed)
		freq := tabu.NewFrequency(prob.Size())
		for e := int32(lo); e < hi; e++ {
			if e != 9 {
				freq.BumpSwap(e, e) // every element of the range but 9 has moved
			}
		}
		list := tabu.NewList()

		before := prob.Snapshot()
		diversify(prob, &stubEnv{}, rng.NewSplitMix64(seed), freq, list, iter, cfg, lo, hi, &divScratch{})
		after := prob.Snapshot()
		var moved []int32
		for e := range before {
			if before[e] != after[e] {
				moved = append(moved, int32(e))
			}
		}
		if len(moved) != 2 || !slices.Contains(moved, 9) {
			t.Fatalf("seed %d: diversify moved elements %v, want 9 and one partner", seed, moved)
		}
		b := moved[0]
		if b == 9 {
			b = moved[1]
		}
		if b < lo || b >= hi {
			t.Fatalf("seed %d: partner %d outside the range [%d, %d)", seed, b, lo, hi)
		}
		if freq.Count(9) != 1 || freq.Count(b) != 3 {
			t.Fatalf("seed %d: frequency memory not bumped: count(9)=%d count(%d)=%d",
				seed, freq.Count(9), b, freq.Count(b))
		}
		if !list.IsTabu(tabu.Attr(9, b), iter+int64(cfg.Tenure)-1) {
			t.Fatalf("seed %d: applied attribute (9,%d) is not tabu for the tenure", seed, b)
		}

		total, tabuLen := freq.Total(), list.Len()
		for _, r := range [][2]int32{{7, 7}, {7, 8}, {8, 7}} {
			diversify(prob, &stubEnv{}, rng.NewSplitMix64(seed), freq, list, iter, cfg, r[0], r[1], &divScratch{})
			if !slices.Equal(prob.Snapshot(), after) || freq.Total() != total || list.Len() != tabuLen {
				t.Fatalf("seed %d: diversify over [%d, %d) changed the state", seed, r[0], r[1])
			}
		}
	}
}

// TestDiversifyBatchMatchesScalar pins diversify's batched partner
// scoring to the per-partner DeltaSwap loop it replaced: the same draws,
// the same skipped b == a partners and the same first strict minimum,
// so the state, frequency and tabu memories end identical — on ft10,
// whose states have a batch kernel, over ranges down to two elements.
// The scalar loop draws its partners through math/rand over the very
// source LeastMoved draws from, so it also pins diversify's hoisted
// partner bound to math/rand's Intn. With its scratch warm, diversify
// allocates nothing.
func TestDiversifyBatchMatchesScalar(t *testing.T) {
	ins, err := schedinst.JobShopByName("ft10")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.DiversifyDepth, cfg.Trials = 12, 16
	const iter = 40
	scalar := func(prob tabu.Problem, src *rng.SplitMix64, freq *tabu.Frequency, list *tabu.List, lo, hi int32) {
		r := rand.New(src)
		for i := 0; i < cfg.DiversifyDepth; i++ {
			a := freq.LeastMoved(src, lo, hi)
			bestB, bestDelta := int32(-1), 0.0
			for t := 0; t < cfg.Trials; t++ {
				b := lo + int32(r.Intn(int(hi-lo)))
				if b == a {
					continue
				}
				if d := prob.DeltaSwap(a, b); bestB < 0 || d < bestDelta {
					bestB, bestDelta = b, d
				}
			}
			if bestB >= 0 {
				prob.ApplySwap(a, bestB)
				freq.BumpSwap(a, bestB)
				list.Add(tabu.Attr(a, bestB), iter+int64(cfg.Tenure))
			}
		}
	}
	var sc divScratch
	for seed := uint64(1); seed <= 8; seed++ {
		for _, r := range [][2]int32{{0, 100}, {30, 70}, {50, 52}} {
			got, want := jobshop.NewState(ins, seed), jobshop.NewState(ins, seed)
			gotFreq, wantFreq := tabu.NewFrequency(100), tabu.NewFrequency(100)
			gotList, wantList := tabu.NewList(), tabu.NewList()
			for round := 0; round < 3; round++ {
				diversify(got, &stubEnv{}, rng.NewSplitMix64(seed+uint64(round)), gotFreq, gotList, iter, cfg, r[0], r[1], &sc)
				scalar(want, rng.NewSplitMix64(seed+uint64(round)), wantFreq, wantList, r[0], r[1])
			}
			if !slices.Equal(got.Snapshot(), want.Snapshot()) || got.Makespan() != want.Makespan() {
				t.Fatalf("seed %d range %v: batched diversify reached another state", seed, r)
			}
			for e := int32(0); e < 100; e++ {
				if gotFreq.Count(e) != wantFreq.Count(e) {
					t.Fatalf("seed %d range %v: frequency of %d is %d, scalar %d", seed, r, e, gotFreq.Count(e), wantFreq.Count(e))
				}
			}
			if gotList.Len() != wantList.Len() {
				t.Fatalf("seed %d range %v: tabu list holds %d, scalar %d", seed, r, gotList.Len(), wantList.Len())
			}
		}
	}
	prob, freq, list, r, env := jobshop.NewState(ins, 1), tabu.NewFrequency(100), tabu.NewList(), rng.NewSplitMix64(1), &stubEnv{}
	if n := testing.AllocsPerRun(20, func() {
		diversify(prob, env, r, freq, list, iter, cfg, 0, 100, &sc)
	}); n != 0 {
		t.Fatalf("diversify allocates %.1f per call, want 0", n)
	}
}

// TestSearchDrawsAllocFree: the search's random draws allocate nothing.
// A barrier reseeds a worker's generator in place, LeastMoved and
// diversify draw from the TSW's generator directly, and
// BuildCompoundBatch's only allocation is the swap slice of the move it
// returns, not its trial sampling.
func TestSearchDrawsAllocFree(t *testing.T) {
	var r rng.SplitMix64
	if n := testing.AllocsPerRun(100, func() { r.Seed(r.Int63()) }); n != 0 {
		t.Errorf("barrier reseed allocates %.1f per call, want 0", n)
	}
	prob := qap.NewState(qap.Random(40, 3), 3)
	freq := tabu.NewFrequency(prob.Size())
	if n := testing.AllocsPerRun(100, func() { freq.LeastMoved(&r, 0, prob.Size()) }); n != 0 {
		t.Errorf("LeastMoved allocates %.1f per call, want 0", n)
	}
	cfg := quickCfg()
	list, env := tabu.NewList(), &stubEnv{}
	var dsc divScratch
	diversify(prob, env, &r, freq, list, 1, cfg, 0, prob.Size(), &dsc)
	if n := testing.AllocsPerRun(100, func() { diversify(prob, env, &r, freq, list, 1, cfg, 0, prob.Size(), &dsc) }); n != 0 {
		t.Errorf("diversify allocates %.1f per call, want 0", n)
	}
	params := tabu.CompoundParams{Trials: 12, Depth: 4, RangeLo: 5, RangeHi: 25}
	var sc tabu.BatchScratch
	warm := tabu.BuildCompoundBatch(prob, &r, params, &sc, nil)
	warm.Undo(prob)
	if n := testing.AllocsPerRun(100, func() {
		m := tabu.BuildCompoundBatch(prob, &r, params, &sc, nil)
		if m.Empty() {
			t.Fatal("no move built")
		}
		m.Undo(prob)
	}); n != 1 {
		t.Errorf("BuildCompoundBatch allocates %.1f per call, want 1 (the move's swaps)", n)
	}
}
