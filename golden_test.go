package pts

import (
	"context"
	"hash/fnv"
	"math"
	"testing"
)

// Golden reproduction tests: fixed-seed static runs must reproduce these
// exact costs and solutions. They were captured before the batched hot
// path landed and re-baselined once when every run adopted the one
// checkpoint-relative RNG protocol (each TSW reseeds itself from every
// checkpoint and deals its CLWs one reseed per slot at each barrier).
// They pin the determinism contract of the candidate-batch
// kernels — batch evaluation, candidate generation order and argmin
// tie-breaking must stay bit-identical to the scalar reference — so any
// change that perturbs the search trajectory, however slightly, fails
// loudly here rather than silently shifting results.

// goldenHash is FNV-64a over the little-endian 4-byte encoding of each
// element of the best permutation.
func goldenHash(p []int32) uint64 {
	h := fnv.New64a()
	for _, v := range p {
		var b [4]byte
		b[0] = byte(v)
		b[1] = byte(v >> 8)
		b[2] = byte(v >> 16)
		b[3] = byte(v >> 24)
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestGoldenStaticRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds each")
	}
	opts := []Option{
		WithWorkers(3, 2),
		WithIterations(6, 25),
		WithTabu(10, 6, 3),
		WithSeed(42),
		WithCluster(Homogeneous(12, 1)),
	}
	for _, tc := range []struct {
		name          string
		best, initial float64
		permhash      uint64
	}{
		{"highway", 0.12642792089513399, 0.68373015873015874, 0x87ac917596e1631a},
		{"c532", 0.28691953972983664, 0.68373015873015885, 0x43076291e417eec7},
		{"qap48", 5349565.8692009198, 5848843.7973522879, 0x5edb0f1efcf19355},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var prob Problem
			if tc.name == "qap48" {
				prob = RandomQAP(48, 5)
			} else {
				var err error
				prob, err = PlacementBenchmark(tc.name)
				if err != nil {
					t.Fatal(err)
				}
			}
			res, err := Solve(context.Background(), prob, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res.BestCost) != math.Float64bits(tc.best) {
				t.Errorf("BestCost = %.17g, golden %.17g (bit mismatch)", res.BestCost, tc.best)
			}
			if math.Float64bits(res.InitialCost) != math.Float64bits(tc.initial) {
				t.Errorf("InitialCost = %.17g, golden %.17g (bit mismatch)", res.InitialCost, tc.initial)
			}
			if h := goldenHash(res.Best); h != tc.permhash {
				t.Errorf("permhash = %#x, golden %#x", h, tc.permhash)
			}
		})
	}
}
