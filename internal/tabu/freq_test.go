package tabu_test

import (
	"math/rand"
	"testing"

	"pts/internal/rng"
	"pts/internal/tabu"
)

// leastMovedOracle is LeastMoved's reservoir loop as written over
// math/rand: the k-th tie of the running minimum draws r.Intn(k) and
// replaces the pick on 0.
func leastMovedOracle(f *tabu.Frequency, r *rand.Rand, lo, hi int32) int32 {
	best := lo
	ties := 1
	for e := lo + 1; e < hi; e++ {
		switch c := f.Count(e); {
		case c < f.Count(best):
			best = e
			ties = 1
		case c == f.Count(best):
			ties++
			if r.Intn(ties) == 0 {
				best = e
			}
		}
	}
	return best
}

// TestLeastMovedMatchesOracle: over count vectors with heavy ties —
// all zero, two count levels, random small counts — and over ranges
// down to a single element, LeastMoved on a *rng.SplitMix64 picks the
// element the math/rand oracle picks from the same seed and leaves the
// stream where the oracle leaves it.
func TestLeastMovedMatchesOracle(t *testing.T) {
	const n = 3000
	gen := rng.NewSplitMix64(99)
	vectors := map[string][]int64{
		"zero":   make([]int64, n),
		"levels": make([]int64, n),
		"small":  make([]int64, n),
	}
	for i := 0; i < n; i++ {
		vectors["levels"][i] = int64(gen.Intn(2)) * 5
		vectors["small"][i] = int64(gen.Intn(4))
	}
	ranges := [][2]int32{{0, n}, {0, 1}, {17, 18}, {n - 1, n}, {5, 9}, {100, 1124}, {1, n - 1}}
	for name, counts := range vectors {
		f := tabu.NewFrequency(n)
		f.Import(counts)
		for seed := uint64(0); seed < 6; seed++ {
			got, src := rng.NewSplitMix64(seed), rng.NewSplitMix64(seed)
			ref := rand.New(src)
			for _, r := range ranges {
				for rep := 0; rep < 3; rep++ {
					if g, w := f.LeastMoved(got, r[0], r[1]), leastMovedOracle(f, ref, r[0], r[1]); g != w {
						t.Fatalf("%s seed %d range %v: LeastMoved = %d, oracle %d", name, seed, r, g, w)
					}
				}
			}
			if g, w := got.Uint64(), src.Uint64(); g != w {
				t.Fatalf("%s seed %d: LeastMoved left the stream at another position than the oracle", name, seed)
			}
		}
	}
}
