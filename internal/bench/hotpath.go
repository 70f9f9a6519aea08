package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/placement"
	"pts/internal/tabu"
)

// Hot-path microbenchmark driver: measures the trial-evaluation kernels
// (the batched DeltaSwapBatch a CLW now runs per candidate batch, plus
// the per-call SwapDelta reference) and the commit kernel (ApplySwap)
// on the paper's circuits, in-process and without the testing package,
// so cmd/ptsbench -hotpath can emit machine-readable numbers for the
// perf trajectory. The per-worker trial throughput is what bounds the
// whole parallel search (Figs. 5–8): every CLW iteration is one batched
// evaluation of Trials candidates plus one ApplySwap.

// hotpathBatch is the candidate-batch size of the headline measurement,
// matching the compound-move batches the engine hands DeltaSwapBatch.
const hotpathBatch = 64

// DefaultHotpathWindows is the default best-of-K repetition count: each
// kernel is timed K times and the fastest window is reported. The
// minimum is the right estimator on shared machines — interference only
// ever adds time — and it is what the CI regression guard compares. The
// per-window spread is reported alongside (ns_per_trial_stddev) so the
// guard tolerance is justified by data, not folklore; raise the window
// count (ptsbench -windows) when the spread approaches the tolerance.
const DefaultHotpathWindows = 5

// HotpathResult is the measurement for one circuit.
//
// Schema notes: ns_per_trial is the batched kernel (batch_size
// candidates per DeltaSwapBatch call) when batch_size is present;
// entries without batch_size predate the batched hot path and measured
// per-call SwapDelta instead. ns_per_apply is absent when the apply
// kernel was not measured — old baselines recorded 0 for circuits the
// pre-PR2 harness skipped, and 0 there means "not measured", never
// "free". ns_per_trial_stddev is the sample standard deviation across
// the measurement windows of the batched kernel (the quantity the CI
// guard compares). Older reports may carry *_relaxed fields from a
// retired accumulation mode; they are ignored on read.
type HotpathResult struct {
	Circuit string `json:"circuit"`
	Cells   int    `json:"cells"`
	Nets    int    `json:"nets"`
	Pins    int    `json:"pins"`

	BatchSize        int     `json:"batch_size,omitempty"`
	NsPerTrial       float64 `json:"ns_per_trial"`
	TrialsPerSec     float64 `json:"trials_per_sec"`
	NsPerTrialStddev float64 `json:"ns_per_trial_stddev,omitempty"`
	NsPerTrialScalar float64 `json:"ns_per_trial_scalar,omitempty"`
	AllocsPerTrial   float64 `json:"allocs_per_trial"`
	NsPerApply       float64 `json:"ns_per_apply,omitempty"`
}

// HotpathReport is the BENCH_hotpath.json schema. Baseline carries the
// previously committed results for before/after comparison; WriteHotpath
// fills it from the file being replaced, so regenerating the report
// always keeps the numbers it superseded.
type HotpathReport struct {
	Note            string          `json:"note,omitempty"`
	GoVersion       string          `json:"go_version"`
	GeneratedAt     string          `json:"generated_at"`
	Windows         int             `json:"windows,omitempty"`
	BaselineComment string          `json:"baseline_comment,omitempty"`
	Baseline        []HotpathResult `json:"baseline,omitempty"`
	Results         []HotpathResult `json:"results"`
}

// measure runs fn in timed batches until targetDur is spent and returns
// ns/op and allocs/op.
func measure(targetDur time.Duration, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	const batch = 4096
	var ms0, ms1 runtime.MemStats
	// Warm-up batch (populates caches and scratch buffers).
	for i := 0; i < batch; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	ops := 0
	// At least one timed batch, so a degenerate duration can never yield
	// a zero-op (Inf/NaN) measurement.
	for ops == 0 || time.Since(start) < targetDur {
		for i := 0; i < batch; i++ {
			fn(ops + i)
		}
		ops += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return float64(elapsed.Nanoseconds()) / float64(ops),
		float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
}

// measureBest splits targetDur into `windows` independent measurement
// windows and returns the fastest ns/op, the worst-case allocs/op (so
// an allocation regression can never hide in a lucky window), and the
// sample standard deviation of ns/op across the windows — the
// run-to-run noise the guard tolerance has to absorb.
func measureBest(targetDur time.Duration, windows int, fn func(i int)) (nsPerOp, allocsPerOp, stddev float64) {
	if windows < 1 {
		windows = 1
	}
	var sum, sumSq float64
	for rep := 0; rep < windows; rep++ {
		ns, allocs := measure(targetDur/time.Duration(windows), fn)
		if rep == 0 || ns < nsPerOp {
			nsPerOp = ns
		}
		if allocs > allocsPerOp {
			allocsPerOp = allocs
		}
		sum += ns
		sumSq += ns * ns
	}
	if windows > 1 {
		mean := sum / float64(windows)
		variance := (sumSq - float64(windows)*mean*mean) / float64(windows-1)
		if variance > 0 {
			stddev = math.Sqrt(variance)
		}
	}
	return nsPerOp, allocsPerOp, stddev
}

// Hotpath measures the trial-evaluation and commit kernels on the named
// circuits (default: the paper's four) for roughly dur per kernel,
// best-of-`windows` per kernel (0 means DefaultHotpathWindows).
func Hotpath(circuits []string, dur time.Duration, windows int) (*HotpathReport, error) {
	if len(circuits) == 0 {
		circuits = netlist.BenchmarkNames()
	}
	if dur <= 0 {
		dur = time.Second
	}
	if windows < 1 {
		windows = DefaultHotpathWindows
	}
	rep := &HotpathReport{
		Note:        fmt.Sprintf("trial-evaluation hot path, batched kernel headline (best of %d windows; ns_per_trial_stddev records the cross-window spread, which is large on shared hosts), measured at GOMAXPROCS=%d; regenerate with: ptsbench -hotpath", windows, runtime.GOMAXPROCS(0)),
		GoVersion:   runtime.Version(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Windows:     windows,
	}
	for _, name := range circuits {
		nl, err := netlist.Benchmark(name)
		if err != nil {
			return nil, err
		}
		p, err := placement.New(nl, placement.AutoLayout(nl, 0.9))
		if err != nil {
			return nil, err
		}
		p.Randomize(rand.New(rand.NewSource(1)))
		ev, err := cost.NewEvaluator(p, cost.DefaultConfig())
		if err != nil {
			return nil, err
		}
		pairs := netlist.BenchmarkPairs(1024, nl.NumCells())
		st := nl.ComputeStats()

		// The same 1024-pair workload the scalar kernel draws from,
		// grouped hotpathBatch at a time into rotating pre-built batches,
		// so the timer sees only the kernel.
		batches := make([][]tabu.SwapCand, len(pairs)/hotpathBatch)
		for bi := range batches {
			cands := make([]tabu.SwapCand, hotpathBatch)
			for i := range cands {
				pr := pairs[bi*hotpathBatch+i]
				cands[i] = tabu.SwapCand{A: int32(pr[0]), B: int32(pr[1])}
			}
			batches[bi] = cands
		}
		out := make([]float64, hotpathBatch)

		batchNs, batchAllocs, batchDev := measureBest(dur, windows, func(i int) {
			ev.DeltaSwapBatch(batches[i%len(batches)], out)
		})
		scalarNs, _, _ := measureBest(dur/2, windows, func(i int) {
			pr := pairs[i&1023]
			ev.SwapDelta(pr[0], pr[1])
		})
		applyNs, _, _ := measureBest(dur/4, windows, func(i int) {
			pr := pairs[i&1023]
			ev.ApplySwap(pr[0], pr[1])
		})
		trialNs := batchNs / hotpathBatch
		rep.Results = append(rep.Results, HotpathResult{
			Circuit:          name,
			Cells:            st.Cells,
			Nets:             st.Nets,
			Pins:             st.Pins,
			BatchSize:        hotpathBatch,
			NsPerTrial:       trialNs,
			TrialsPerSec:     1e9 / trialNs,
			NsPerTrialStddev: batchDev / hotpathBatch,
			NsPerTrialScalar: scalarNs,
			AllocsPerTrial:   batchAllocs / hotpathBatch,
			NsPerApply:       applyNs,
		})
	}
	return rep, nil
}

// WriteHotpath writes the report as <dir>/BENCH_hotpath.json. When the
// file already exists, its results become the new file's baseline (with
// a comment recording their provenance), so the before/after comparison
// always spans exactly one regeneration.
func WriteHotpath(rep *HotpathReport, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_hotpath.json")
	if prev, err := os.ReadFile(path); err == nil {
		var old HotpathReport
		if json.Unmarshal(prev, &old) == nil && len(old.Results) > 0 {
			rep.Baseline = old.Results
			rep.BaselineComment = fmt.Sprintf("previous committed results (%s, %s)", old.GeneratedAt, old.GoVersion)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadHotpath loads a BENCH_hotpath.json report.
func ReadHotpath(path string) (*HotpathReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep HotpathReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// HotpathGuard checks a freshly regenerated report (whose baseline
// WriteHotpath filled with the previously committed results) for
// regressions on the named circuits (comma-separated): for each it
// fails when the new trials/sec falls more than tolerance below the
// baseline's and when the batched kernel allocates — both asserted
// from the JSON artifact itself, so the committed numbers and the
// guarded numbers can never diverge. The CI bench-smoke job
// runs it after ptsbench -hotpath so a kernel change that loses more
// than the tolerance shows up as a red build, not a quietly worse
// committed number.
func HotpathGuard(rep *HotpathReport, circuits string, tolerance float64) (string, error) {
	find := func(rs []HotpathResult, circuit string) *HotpathResult {
		for i := range rs {
			if rs[i].Circuit == circuit {
				return &rs[i]
			}
		}
		return nil
	}
	var msgs []string
	for _, circuit := range strings.Split(circuits, ",") {
		circuit = strings.TrimSpace(circuit)
		if circuit == "" {
			continue
		}
		cur := find(rep.Results, circuit)
		if cur == nil {
			return "", fmt.Errorf("hotpath guard: circuit %q not in results", circuit)
		}
		if cur.AllocsPerTrial != 0 {
			return "", fmt.Errorf("hotpath guard: %s allocates %.2f/trial, want 0", circuit, cur.AllocsPerTrial)
		}
		base := find(rep.Baseline, circuit)
		if base == nil {
			msgs = append(msgs, fmt.Sprintf("%s: no baseline to compare against (first run)", circuit))
			continue
		}
		floor := base.TrialsPerSec * (1 - tolerance)
		msg := fmt.Sprintf("%s %.0f trials/sec vs baseline %.0f (floor %.0f at %.0f%% tolerance)",
			circuit, cur.TrialsPerSec, base.TrialsPerSec, floor, tolerance*100)
		if cur.TrialsPerSec < floor {
			return "", fmt.Errorf("hotpath guard: %s: REGRESSION", msg)
		}
		msgs = append(msgs, msg+": ok")
	}
	if len(msgs) == 0 {
		return "", fmt.Errorf("hotpath guard: no circuits named")
	}
	return "hotpath guard: " + strings.Join(msgs, "; "), nil
}

// RenderHotpath renders the report as an aligned text table, with
// speedup columns when a baseline is present.
func RenderHotpath(rep *HotpathReport) string {
	base := make(map[string]HotpathResult, len(rep.Baseline))
	for _, r := range rep.Baseline {
		base[r.Circuit] = r
	}
	out := fmt.Sprintf("hot path (%s)\n%-10s %8s %6s %10s %14s %10s %12s %10s\n",
		rep.GoVersion, "circuit", "cells", "batch", "ns/trial", "trials/sec", "ns/scalar", "allocs/trial", "ns/apply")
	for _, r := range rep.Results {
		out += fmt.Sprintf("%-10s %8d %6d %10.1f %14.0f %10.1f %12.2f %10.1f",
			r.Circuit, r.Cells, r.BatchSize, r.NsPerTrial, r.TrialsPerSec,
			r.NsPerTrialScalar, r.AllocsPerTrial, r.NsPerApply)
		if b, ok := base[r.Circuit]; ok && r.NsPerTrial > 0 {
			out += fmt.Sprintf("   (%.2fx trials/sec vs baseline)", b.NsPerTrial/r.NsPerTrial)
		}
		out += "\n"
	}
	return out
}
