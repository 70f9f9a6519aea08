package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
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

// runFigure runs one figure driver into an empty report and checks
// that every record it emits belongs to layer.
func runFigure(t *testing.T, driver func(Opts, *Report) error, o Opts, layer string) *Report {
	t.Helper()
	rep := &Report{}
	if err := driver(o, rep); err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Records {
		if r.Layer != layer {
			t.Fatalf("record %+v outside layer %s", r, layer)
		}
	}
	return rep
}

// withMetric returns the records of rep with the given metric, in order.
func withMetric(rep *Report, metric string) []Record {
	var out []Record
	for _, r := range rep.Records {
		if r.Metric == metric {
			out = append(out, r)
		}
	}
	return out
}

func TestFig5Shape(t *testing.T) {
	rep := runFigure(t, Fig5, tinyOpts(), "fig05")
	if len(rep.Records) != 4 {
		t.Fatalf("want 4 CLW records, got %d", len(rep.Records))
	}
	for i, r := range rep.Records {
		if want := fmt.Sprintf("highway/clws=%d", i+1); r.Workload != want || r.Metric != "best_cost" {
			t.Errorf("record %d = %s/%s, want %s/best_cost", i, r.Workload, r.Metric, want)
		}
		if r.Value <= 0 || r.Value >= 1 {
			t.Errorf("quality %v outside (0,1)", r.Value)
		}
	}
}

func TestFig6SpeedupBaseline(t *testing.T) {
	o := tinyOpts()
	o.Circuits = []string{"highway"} // intersect falls back to it
	rep := runFigure(t, Fig6, o, "fig06")
	speedups := withMetric(rep, "speedup")
	if len(speedups) != 4 {
		t.Fatalf("want 4 speedup records, got %d", len(speedups))
	}
	// n=1 compares the baseline against itself: speedup exactly 1.
	if r := speedups[0]; r.Workload != "highway/clws=1" || r.Value != 1 {
		t.Errorf("baseline speedup should be 1 at n=1, got %+v", r)
	}
	for _, r := range speedups {
		if r.Value <= 0 {
			t.Errorf("nonpositive speedup %+v", r)
		}
	}
	if v := value(t, rep, "fig06", "highway", "unreached_runs"); v < 0 || v > 4 {
		t.Errorf("unreached runs = %v of 4", v)
	}
}

func TestFig7Shape(t *testing.T) {
	rep := runFigure(t, Fig7, tinyOpts(), "fig07")
	if len(rep.Records) != 8 || rep.Records[7].Workload != "highway/tsws=8" {
		t.Fatalf("want 8 TSW records ending at tsws=8, got %+v", rep.Records)
	}
}

func TestFig9TracePairs(t *testing.T) {
	rep := runFigure(t, Fig9, tinyOpts(), "fig09")
	if len(rep.Records) != 6 {
		t.Fatalf("want 3 records for each of div and nodiv, got %d", len(rep.Records))
	}
	for _, side := range []string{"highway/div", "highway/nodiv"} {
		if v := value(t, rep, "fig09", side, "end_time_s"); v <= 0 {
			t.Errorf("%s trace ends at %v", side, v)
		}
		final := value(t, rep, "fig09", side, "final_cost")
		// One repeat: the median run is the only run.
		if mean := value(t, rep, "fig09", side, "mean_final_cost"); final <= 0 || final >= 1 || mean != final {
			t.Errorf("%s final cost %v, mean %v", side, final, mean)
		}
	}
}

func TestFig10BudgetSweep(t *testing.T) {
	rep := runFigure(t, Fig10, tinyOpts(), "fig10")
	if len(rep.Records) < 3 {
		t.Fatalf("too few budget splits: %d", len(rep.Records))
	}
	prev := 0
	for _, r := range rep.Records {
		l, err := strconv.Atoi(strings.TrimPrefix(r.Workload, "highway/local="))
		if err != nil {
			t.Fatalf("workload %q: %v", r.Workload, err)
		}
		if l <= prev {
			t.Fatal("local-iteration axis not increasing")
		}
		prev = l
	}
}

func TestFig11HetVsHom(t *testing.T) {
	rep := runFigure(t, Fig11, tinyOpts(), "fig11")
	if len(rep.Records) != 4 {
		t.Fatalf("want final_cost and end_time_s for het and hom, got %d records", len(rep.Records))
	}
	// The paper's claim: het finishes earlier (same iteration budget).
	hetEnd := value(t, rep, "fig11", "highway/het", "end_time_s")
	homEnd := value(t, rep, "fig11", "highway/hom", "end_time_s")
	if hetEnd >= homEnd {
		t.Fatalf("het end %v not earlier than hom end %v", hetEnd, homEnd)
	}
}

func TestProgressCallback(t *testing.T) {
	o := tinyOpts()
	var lines []string
	o.Progress = func(s string) { lines = append(lines, s) }
	runFigure(t, Fig5, o, "fig05")
	if len(lines) != 4 { // 4 CLW settings x 1 repeat x 1 circuit
		t.Fatalf("progress lines = %d, want 4", len(lines))
	}
}

func TestPaper(t *testing.T) {
	rep, err := Paper(tinyOpts(), "7")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != "paper" || !strings.HasSuffix(rep.Note, "regenerate with: ptsbench -fig all") {
		t.Errorf("header = %q, note %q", rep.Scenario, rep.Note)
	}
	for _, k := range []string{"figures", "scale", "repeats", "seed", "cluster_seed", "circuits"} {
		if _, ok := rep.Inputs[k]; !ok {
			t.Errorf("input %q missing from %v", k, rep.Inputs)
		}
	}
	if figs := rep.Inputs["figures"].([]string); !reflect.DeepEqual(figs, []string{"fig07"}) {
		t.Errorf("figures = %v", figs)
	}
	if len(rep.Records) != 8 || rep.Records[0].Layer != "fig07" {
		t.Errorf("records = %+v", rep.Records)
	}
	if _, err := Paper(tinyOpts(), "12"); err == nil {
		t.Error("unknown figure accepted")
	}
}

// TestPaperRecordClaims reads the committed paper record, without
// rerunning the sweep, and checks the claims of the paper it
// reproduces; results/bench_paper.md describes the ones it does not.
func TestPaperRecordClaims(t *testing.T) {
	rep, err := Read(filepath.Join("..", "..", "results", "BENCH_paper.json"))
	if err != nil {
		t.Fatal(err)
	}
	circuits, _ := rep.Inputs["circuits"].([]any)
	if len(circuits) != 4 {
		t.Fatalf("record covers circuits %v, want all four", rep.Inputs["circuits"])
	}
	for _, c := range circuits {
		name := c.(string)
		// Fig. 5: more CLWs never make the best cost worse.
		prev := math.Inf(1)
		for clws := 1; clws <= 4; clws++ {
			v := value(t, rep, "fig05", fmt.Sprintf("%s/clws=%d", name, clws), "best_cost")
			if v > prev {
				t.Errorf("fig05 %s: best cost rises to %v at %d CLWs (was %v)", name, v, clws, prev)
			}
			prev = v
		}
		// Fig. 11: the heterogeneous (half-sync) run finishes first.
		het := value(t, rep, "fig11", name+"/het", "end_time_s")
		hom := value(t, rep, "fig11", name+"/hom", "end_time_s")
		if het >= hom {
			t.Errorf("fig11 %s: het ends at %vs, not before hom at %vs", name, het, hom)
		}
	}
	// Figs. 6 and 8: one worker is its own baseline.
	for _, fig := range []struct{ layer, axis string }{{"fig06", "clws"}, {"fig08", "tsws"}} {
		for _, name := range []string{"c532", "c3540"} {
			if v := value(t, rep, fig.layer, name+"/"+fig.axis+"=1", "speedup"); v != 1 {
				t.Errorf("%s %s: speedup %v at n = 1", fig.layer, name, v)
			}
		}
	}
}

func TestRender(t *testing.T) {
	rep := &Report{
		Scenario: "paper", GoVersion: "go1.24.0", GOMAXPROCS: 2, NumCPU: 2,
		Inputs: map[string]any{"seed": 2003},
		Records: []Record{
			{Layer: "fig10", Workload: "highway/local=160", Metric: "best_cost", Value: 0.25},
			{Layer: "kernel", Workload: "c532", Metric: "ns_per_trial", Value: 40, Stddev: 2},
		},
		Baseline: []Record{{Layer: "fig10", Workload: "highway/local=160", Metric: "best_cost", Value: 0.5}},
	}
	lines := strings.Split(strings.TrimSuffix(Render(rep), "\n"), "\n")
	want := []string{
		"paper (go1.24.0, GOMAXPROCS=2, NumCPU=2)",
		"inputs map[seed:2003]",
		"  fig10    highway/local=160  best_cost                        0.25   (baseline 0.5, 0.50x)",
		"  kernel   c532               ns_per_trial                       40 ± 2",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("Render:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
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
			inputs: []string{"global_iters", "local_iters", "seed", "window_seconds", "windows"},
			check: func(t *testing.T, rep *Report) {
				for _, ins := range []string{"flowshop-ta001", "jobshop-ft06", "jobshop-ft10", "jobshop-la01"} {
					best := value(t, rep, "search", ins, "best_makespan")
					if best < value(t, rep, "instance", ins, "lower_bound") || best > value(t, rep, "search", ins, "initial_makespan") {
						t.Errorf("%s best makespan %v outside [lower bound, initial]", ins, best)
					}
					for _, m := range []string{"scalar_deltas_per_sec", "batch_deltas_per_sec"} {
						if r := find(rep.Records, "kernel", ins, m); r == nil || r.Value <= 0 || r.Windows != DefaultHotpathWindows {
							t.Errorf("%s %s record %+v is not a best-of-%d measurement", ins, m, r, DefaultHotpathWindows)
						}
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

	// The guard runs on records built here rather than measured, so a
	// runtime allocation landing in a timed window cannot fail it.
	kernel := func(metric string, v float64) Record {
		return Record{Layer: "kernel", Workload: "highway", Metric: metric, Value: v}
	}
	for _, tc := range []struct {
		name     string
		circuits string
		allocs   float64
		baseline []Record
		wantErr  string // "" = the guard passes
	}{
		{"pass", "highway", 0, []Record{kernel("trials_per_sec", 1.05e7)}, ""},
		{"first run", "highway", 0, nil, ""},
		{"regression", "highway", 0, []Record{kernel("trials_per_sec", 2e7)}, "REGRESSION"},
		{"allocates", "highway", 0.5, []Record{kernel("trials_per_sec", 1e7)}, "allocates"},
		{"missing circuit", "c532", 0, []Record{kernel("trials_per_sec", 1e7)}, "not in results"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := &Report{
				Records:  []Record{kernel("trials_per_sec", 1e7), kernel("allocs_per_trial", tc.allocs)},
				Baseline: tc.baseline,
			}
			msg, err := HotpathGuard(rep, tc.circuits, 0.10)
			if tc.wantErr == "" {
				if err != nil || !strings.HasPrefix(msg, "hotpath guard: highway") {
					t.Errorf("guard = %q, %v; want a pass", msg, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("guard error = %v, want %q", err, tc.wantErr)
			}
		})
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
