package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pts/internal/stats"
)

// tinyOpts keeps driver tests fast: the smallest circuit, minimal
// budgets, one repeat.
func tinyOpts() Opts {
	return Opts{
		Scale:    0.1,
		Repeats:  1,
		Seed:     5,
		Circuits: []string{"highway"},
	}
}

func TestOptsDefaults(t *testing.T) {
	o := Opts{}.withDefaults()
	if o.Scale != 1 || o.Repeats != 3 || o.Seed == 0 || len(o.Circuits) != 4 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	small := Opts{Scale: 0.1}.withDefaults()
	if small.Repeats != 1 {
		t.Errorf("small scale should reduce repeats, got %d", small.Repeats)
	}
	if got := o.scaled(100, 5); got != 100 {
		t.Errorf("scaled(100) = %d", got)
	}
	if got := small.scaled(100, 5); got != 10 {
		t.Errorf("scaled(100) at 0.1 = %d", got)
	}
	if got := small.scaled(10, 5); got != 5 {
		t.Errorf("scaled floor broken: %d", got)
	}
}

func TestSeedForDistinct(t *testing.T) {
	o := tinyOpts().withDefaults()
	seen := map[uint64]bool{}
	for _, fig := range []string{"fig5", "fig7"} {
		for _, c := range []string{"highway", "c532"} {
			for rep := 0; rep < 3; rep++ {
				s := o.seedFor(fig, c, rep)
				if seen[s] {
					t.Fatalf("seed collision at %s/%s/%d", fig, c, rep)
				}
				seen[s] = true
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	f, err := Fig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "fig05" || len(f.Series) != 1 {
		t.Fatalf("figure shape wrong: %s, %d series", f.ID, len(f.Series))
	}
	s := f.Series[0]
	if len(s.Points) != 4 {
		t.Fatalf("want 4 CLW points, got %d", len(s.Points))
	}
	for i, p := range s.Points {
		if p.X != float64(i+1) {
			t.Errorf("x[%d] = %v", i, p.X)
		}
		if p.Y <= 0 || p.Y >= 1 {
			t.Errorf("quality %v outside (0,1)", p.Y)
		}
	}
}

func TestFig6SpeedupBaseline(t *testing.T) {
	o := tinyOpts()
	o.Circuits = []string{"highway"} // intersect falls back to it
	f, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if len(s.Points) != 4 {
			t.Fatalf("want 4 points, got %d", len(s.Points))
		}
		// n=1 compares the baseline against itself: speedup exactly 1.
		if s.Points[0].X != 1 || s.Points[0].Y != 1 {
			t.Errorf("baseline speedup should be 1 at n=1, got %+v", s.Points[0])
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("nonpositive speedup %v", p.Y)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	f, err := Fig7(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 1 || len(f.Series[0].Points) != 8 {
		t.Fatalf("want 1 series with 8 points, got %d/%d",
			len(f.Series), len(f.Series[0].Points))
	}
}

func TestFig9TracePairs(t *testing.T) {
	f, err := Fig9(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("want div+nodiv series, got %d", len(f.Series))
	}
	names := f.Series[0].Name + " " + f.Series[1].Name
	if !strings.Contains(names, "/div") || !strings.Contains(names, "/nodiv") {
		t.Fatalf("series misnamed: %s", names)
	}
	for _, s := range f.Series {
		if len(s.Points) < 2 {
			t.Fatalf("trace too short: %d points", len(s.Points))
		}
	}
}

func TestFig10BudgetSweep(t *testing.T) {
	f, err := Fig10(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := f.Series[0]
	if len(s.Points) < 3 {
		t.Fatalf("too few budget splits: %d", len(s.Points))
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].X <= s.Points[i-1].X {
			t.Fatal("local-iteration axis not increasing")
		}
	}
}

func TestFig11HetVsHom(t *testing.T) {
	f, err := Fig11(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("want het+hom, got %d series", len(f.Series))
	}
	var het, hom *stats.Series
	for i := range f.Series {
		if strings.HasSuffix(f.Series[i].Name, "/het") {
			het = &f.Series[i]
		}
		if strings.HasSuffix(f.Series[i].Name, "/hom") {
			hom = &f.Series[i]
		}
	}
	if het == nil || hom == nil {
		t.Fatal("missing series")
	}
	// The paper's claim: het finishes earlier (same iteration budget).
	hetEnd := het.Points[len(het.Points)-1].X
	homEnd := hom.Points[len(hom.Points)-1].X
	if hetEnd >= homEnd {
		t.Fatalf("het end %v not earlier than hom end %v", hetEnd, homEnd)
	}
}

func TestProgressCallback(t *testing.T) {
	o := tinyOpts()
	var lines []string
	o.Progress = func(s string) { lines = append(lines, s) }
	if _, err := Fig5(o); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 { // 4 CLW settings x 1 repeat x 1 circuit
		t.Fatalf("progress lines = %d, want 4", len(lines))
	}
}

func TestRenderASCII(t *testing.T) {
	f, err := Fig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := RenderASCII(f)
	for _, want := range []string{"fig05", "highway", "legend:", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII output missing %q", want)
		}
	}
	// Trace-style figures use the summary table.
	f9, err := Fig9(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	out9 := RenderASCII(f9)
	if !strings.Contains(out9, "final") {
		t.Errorf("trace figure should use the summary table:\n%s", out9)
	}
}

func TestRenderEmptyFigure(t *testing.T) {
	f := &Figure{ID: "x", Title: "empty"}
	if out := RenderASCII(f); !strings.Contains(out, "(no data)") {
		t.Errorf("empty figure render: %q", out)
	}
}

func TestWriteCSV(t *testing.T) {
	f, err := Fig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := WriteCSV(f, dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "fig05.csv" {
		t.Errorf("path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "series,x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 1+4 {
		t.Errorf("want 5 lines, got %d", len(lines))
	}
}

func TestIntersect(t *testing.T) {
	if got := intersect([]string{"a", "b", "c"}, []string{"c", "a"}); len(got) != 2 || got[0] != "c" {
		t.Errorf("intersect = %v", got)
	}
	if got := intersect([]string{"a"}, []string{"z"}); len(got) != 1 || got[0] != "a" {
		t.Errorf("fallback broken: %v", got)
	}
}

func TestScenarios(t *testing.T) {
	// Tiny budgets with near-free work emulation: every scenario runs its
	// whole protocol (loopback TCP for recovery and serve) in well under
	// a second, and the checks cover the header and the records.
	for _, tc := range []struct {
		name string
		run  func(Opts) (*Report, error)
		// want lists workload/metric pairs that must be present.
		want []string
		// inputs lists input keys that must be present.
		inputs []string
		check  func(t *testing.T, rep *Report)
	}{
		{
			name:   "hetero",
			run:    Hetero,
			want:   []string{"static/wall_seconds", "static/best_cost", "adaptive/wall_seconds", "adaptive/rebalances", "adaptive/speedup"},
			inputs: []string{"circuit", "machine_speeds", "work_scale", "local_iters", "seed"},
			check: func(t *testing.T, rep *Report) {
				if speeds := rep.Inputs["machine_speeds"].([]float64); len(speeds) != 6 {
					t.Errorf("machine speeds = %v", speeds)
				}
				for _, side := range []string{"static", "adaptive"} {
					if v := value(t, rep, "engine", side, "wall_seconds"); v <= 0 {
						t.Errorf("%s wall time %v", side, v)
					}
				}
				if v := value(t, rep, "engine", "adaptive", "speedup"); v <= 0 {
					t.Errorf("speedup = %v", v)
				}
			},
		},
		{
			name:   "recovery",
			run:    Recovery,
			want:   []string{"fold_only/wall_seconds", "fold_only/workers_lost", "respawn/workers_respawned", "respawn/rounds", "respawn/speedup"},
			inputs: []string{"circuit", "kill_round", "work_scale", "local_iters", "seed"},
			check: func(t *testing.T, rep *Report) {
				for _, side := range []string{"fold_only", "respawn"} {
					if v := value(t, rep, "engine", side, "rounds"); v != recoveryGlobalIters {
						t.Errorf("%s ran %v rounds, want %d", side, v, recoveryGlobalIters)
					}
					if v := value(t, rep, "engine", side, "interrupted"); v != 0 {
						t.Errorf("%s interrupted", side)
					}
				}
				if v := value(t, rep, "engine", "fold_only", "workers_respawned"); v != 0 {
					t.Errorf("fold-only respawned %v workers", v)
				}
			},
		},
		{
			name:   "serve",
			run:    Serve,
			want:   []string{"concurrency-1/jobs_per_minute", "concurrency-4/jobs_per_minute", "concurrency-4/throughput_gain"},
			inputs: []string{"circuit", "fleet_workers", "jobs_per_level", "concurrency", "seed"},
			check: func(t *testing.T, rep *Report) {
				for _, level := range []string{"concurrency-1", "concurrency-4"} {
					p50 := value(t, rep, "serve", level, "p50_latency_seconds")
					p95 := value(t, rep, "serve", level, "p95_latency_seconds")
					if p50 <= 0 || p95 < p50 || value(t, rep, "serve", level, "max_latency_seconds") < p95 {
						t.Errorf("%s latencies p50 %v p95 %v", level, p50, p95)
					}
					if v := value(t, rep, "serve", level, "jobs_per_minute"); v <= 0 {
						t.Errorf("%s jobs/minute = %v", level, v)
					}
				}
				if v := value(t, rep, "serve", "concurrency-4", "throughput_gain"); v <= 0 {
					t.Errorf("throughput gain = %v", v)
				}
			},
		},
		{
			name:   "sched",
			run:    Sched,
			want:   []string{"flowshop-ta001/best_makespan", "jobshop-ft06/best_makespan", "jobshop-ft06/lower_bound", "jobshop-ft10/batch_speedup", "jobshop-la01/modeled_seconds"},
			inputs: []string{"global_iters", "local_iters", "seed", "window_seconds"},
			check: func(t *testing.T, rep *Report) {
				for _, ins := range []string{"flowshop-ta001", "jobshop-ft06", "jobshop-ft10", "jobshop-la01"} {
					best := value(t, rep, "search", ins, "best_makespan")
					if best < value(t, rep, "instance", ins, "lower_bound") || best > value(t, rep, "search", ins, "initial_makespan") {
						t.Errorf("%s best makespan %v outside [lower bound, initial]", ins, best)
					}
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := tc.run(Opts{Scale: 0.1, WorkScale: 1e-6})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Scenario != tc.name || rep.GoVersion == "" || rep.GOMAXPROCS < 1 || rep.NumCPU < 1 {
				t.Errorf("header = %q %q GOMAXPROCS=%d NumCPU=%d", rep.Scenario, rep.GoVersion, rep.GOMAXPROCS, rep.NumCPU)
			}
			if _, err := time.Parse(time.RFC3339, rep.GeneratedAt); err != nil {
				t.Errorf("generated_at: %v", err)
			}
			for _, k := range tc.inputs {
				if _, ok := rep.Inputs[k]; !ok {
					t.Errorf("input %q missing from %v", k, rep.Inputs)
				}
			}
			for _, r := range rep.Records {
				if r.Layer == "" || r.Workload == "" || r.Metric == "" || math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
					t.Errorf("bad record %+v", r)
				}
			}
			for _, w := range tc.want {
				workload, metric, _ := strings.Cut(w, "/")
				found := false
				for _, r := range rep.Records {
					found = found || (r.Workload == workload && r.Metric == metric)
				}
				if !found {
					t.Errorf("no %s record", w)
				}
			}
			tc.check(t, rep)
			path, err := Write(rep, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(path) != "BENCH_"+tc.name+".json" {
				t.Errorf("path = %s", path)
			}
		})
	}
}

// value returns the value of one record of rep, failing the test when
// the record is missing.
func value(t *testing.T, rep *Report, layer, workload, metric string) float64 {
	t.Helper()
	r := find(rep.Records, layer, workload, metric)
	if r == nil {
		t.Fatalf("no %s/%s/%s record", layer, workload, metric)
	}
	return r.Value
}

func TestHotpathBaselineAndGuard(t *testing.T) {
	dir := t.TempDir()
	first, err := Hotpath([]string{"highway"}, 20*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Write(first, dir); err != nil {
		t.Fatal(err)
	}
	if first.Baseline != nil {
		t.Fatalf("first report has a baseline: %+v", first.Baseline)
	}
	if r := find(first.Records, "kernel", "highway", "ns_per_trial"); r == nil || r.Windows != 2 || r.Value <= 0 {
		t.Fatalf("ns_per_trial record = %+v", r)
	}
	second, err := Hotpath([]string{"highway"}, 20*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	path, err := Write(second, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Baseline, first.Records) || second.BaselineComment == "" {
		t.Errorf("second baseline = %+v (%q), want the first report's records", second.Baseline, second.BaselineComment)
	}

	// Read round-trips: the file re-encodes to the report that wrote it.
	back, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(second)
	got, _ := json.Marshal(back)
	if string(got) != string(want) {
		t.Errorf("round trip:\n got %s\nwant %s", got, want)
	}

	if _, err := HotpathGuard(back, "highway", 0.99); err != nil {
		t.Errorf("guard at 99%% tolerance: %v", err)
	}
	inflated := *back
	inflated.Baseline = append([]Record(nil), back.Baseline...)
	find(inflated.Baseline, "kernel", "highway", "trials_per_sec").Value *= 1000
	if _, err := HotpathGuard(&inflated, "highway", 0.10); err == nil || !strings.Contains(err.Error(), "REGRESSION") {
		t.Errorf("guard on an inflated baseline: %v", err)
	}
	allocating := *back
	allocating.Records = append([]Record(nil), back.Records...)
	find(allocating.Records, "kernel", "highway", "allocs_per_trial").Value = 0.5
	if _, err := HotpathGuard(&allocating, "highway", 0.99); err == nil || !strings.Contains(err.Error(), "allocates") {
		t.Errorf("guard on nonzero allocs: %v", err)
	}
	if _, err := HotpathGuard(back, "c532", 0.10); err == nil {
		t.Error("guard passed on a circuit missing from the records")
	}
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // the ceil(p·n)-th smallest of 1..n
	}{
		{1, 0.5, 1}, {1, 0.95, 1},
		{12, 0.5, 6}, {12, 0.95, 12},
		{20, 0.5, 10}, {20, 0.95, 19},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}
