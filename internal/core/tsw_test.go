package core

import (
	"context"
	"slices"
	"testing"

	"pts/internal/cluster"
	"pts/internal/qap"
	"pts/internal/rng"
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
		diversify(prob, &stubEnv{}, rng.New(seed), freq, list, iter, cfg, lo, hi)
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
			diversify(prob, &stubEnv{}, rng.New(seed), freq, list, iter, cfg, r[0], r[1])
			if !slices.Equal(prob.Snapshot(), after) || freq.Total() != total || list.Len() != tabuLen {
				t.Fatalf("seed %d: diversify over [%d, %d) changed the state", seed, r[0], r[1])
			}
		}
	}
}
