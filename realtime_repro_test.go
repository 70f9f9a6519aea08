package pts

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestRealTimeOneTSWRepeatsPerSeed is the in-process half of the
// reproducibility contract: with one TSW, its CLWs run as coroutines on
// the TSW's thread and take their turns in a fixed order, so a
// real-time run returns the same best solution and the same counters on
// every repeat of a seed, with half-sync off or on.
func TestRealTimeOneTSWRepeatsPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("48 real-time solves")
	}
	c532, err := PlacementBenchmark("c532")
	if err != nil {
		t.Fatal(err)
	}
	ft10, err := JobShopBenchmark("ft10")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		prob Problem
		clws int
	}{
		{"c532", c532, 3},
		{"ft10", ft10, 2},
	}
	for _, tc := range cases {
		for _, half := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/1x%d/halfsync=%v", tc.name, tc.clws, half), func(t *testing.T) {
				for seed := uint64(1); seed <= 4; seed++ {
					var first *Result
					for rep := 0; rep < 3; rep++ {
						res, err := Solve(context.Background(), tc.prob,
							WithRealTime(), WithWorkers(1, tc.clws), WithHalfSync(half),
							WithIterations(10, 60), WithTrace(false), WithSeed(seed))
						if err != nil {
							t.Fatal(err)
						}
						if first == nil {
							first = res
							continue
						}
						if res.BestCost != first.BestCost || !reflect.DeepEqual(res.Best, first.Best) {
							t.Errorf("seed %d, solve %d: best cost %v, want %v (or a different permutation)",
								seed, rep+1, res.BestCost, first.BestCost)
						}
						if res.Stats != first.Stats {
							t.Errorf("seed %d, solve %d: stats %+v, want %+v", seed, rep+1, res.Stats, first.Stats)
						}
					}
				}
			})
		}
	}
}
