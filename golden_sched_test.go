package pts

import (
	"context"
	"math"
	"testing"
)

// Golden reproduction runs for the scheduling workloads, one instance
// per family, captured when the workloads landed and re-baselined with
// the placement goldens (see golden_test.go). Unlike the placement
// and QAP goldens these pin searches whose delta evaluation is not
// O(1) — the flow shop recomputes critical-path sections and the job
// shop decodes windows between checkpoints closed by max-plus tails
// inside DeltaSwapBatch — so
// they additionally guard the batch kernels' bit-identity to the scalar
// path under the engine's real candidate streams. Costs are integral
// makespans widened to float64, so any drift is a whole unit, never
// rounding.
func TestGoldenSchedRuns(t *testing.T) {
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
		{"flowshop-ta001", 1297, 1514, 0x1a6835c520708df5},
		{"jobshop-ft06", 55, 87, 0xac1de5941650d5b5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var prob Problem
			var err error
			if tc.name == "flowshop-ta001" {
				prob, err = FlowShopBenchmark("ta001")
			} else {
				prob, err = JobShopBenchmark("ft06")
			}
			if err != nil {
				t.Fatal(err)
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
