package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"pts"
)

// tiny shrinks a workload to a few seeds, so every workload runs in
// about a second.
func tiny(w *workload) *workload {
	t := *w
	t.seeds = 4
	return &t
}

func TestWorkloadsTiny(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if _, ok := workloadByName(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", sw.Name)
		}
	}
	ctx := context.Background()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := tiny(w), traced
			name := w.name
			want := spec.EndToEnd
			if traced {
				name += "/traced"
				want = spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				rc := runConfig{seed: 3, seconds: 0.05, trace: traced, workdir: t.TempDir()}
				res, err := runWorkload(ctx, w, rc, t.Logf)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, res.Info["errors"])
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestDecoratorKeepsTrajectory pins the tracing decorator's contract:
// a decorated solve of a reproducible configuration returns exactly the
// undecorated result, for every state module, and the decorator counts
// the hot calls it forwarded.
func TestDecoratorKeepsTrajectory(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		mod   string
		build func() (pts.Problem, error)
		opts  []pts.Option
	}{
		{"cost", buildC532, []pts.Option{pts.WithVirtualTime(), pts.WithIterations(3, 20)}},
		{"jobshop", buildFT10, []pts.Option{pts.WithRealTime(), pts.WithWorkers(1, 1), pts.WithHalfSync(false), pts.WithIterations(3, 20)}},
		{"flowshop", buildTa001, serveOpts(5)},
	}
	for _, c := range cases {
		t.Run(c.mod, func(t *testing.T) {
			p, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := pts.Solve(ctx, p, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			tp := &tracedProblem{Problem: p, mod: c.mod, op: tr.newID(), tr: tr}
			got, err := pts.Solve(ctx, tp, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			tp.fold(0)
			if got.BestCost != want.BestCost || !reflect.DeepEqual(got.Best, want.Best) ||
				got.Stats != want.Stats || !reflect.DeepEqual(got.Details, want.Details) {
				t.Errorf("decorated solve differs: best %v vs %v, stats %+v vs %+v", got.BestCost, want.BestCost, got.Stats, want.Stats)
			}
			h := tr.hot[c.mod]
			if h == nil || h.ops != 1 || h.deltaCalls == 0 || h.cands < h.deltaCalls || h.applyCalls == 0 {
				t.Errorf("hot counts not recorded: %+v", h)
			}
			if n, _ := spanStats(tr.finish(), c.mod+".NewState"); n == 0 {
				t.Error("no NewState span recorded")
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{[]float64{100, 101}, []float64{100.5, 101.5}, true, "same"},
		{[]float64{100, 101}, []float64{115, 116}, true, "worse"},
		{[]float64{100, 101}, []float64{115, 116}, false, "better"},
		{[]float64{100, 130}, []float64{101, 102}, true, "unresolved"},
		{[]float64{100, 130}, []float64{80, 95}, true, "better"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.a, c.b, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("verdict(%v, %v, lower=%v) = %s, want %s", c.a, c.b, c.lowerBetter, got, c.want)
		}
	}
}
