package bench

import (
	"fmt"
	"math"
	"math/rand"
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
// per-window spread is reported alongside (the ns_per_trial stddev) so the
// guard tolerance is justified by data, not folklore; raise the window
// count (ptsbench -windows) when the spread approaches the tolerance.
const DefaultHotpathWindows = 5

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
// best-of-`windows` per kernel (0 means DefaultHotpathWindows). Each
// circuit yields instance records (cells, nets, pins) and kernel
// records: ns_per_trial and trials_per_sec of the batched kernel,
// ns_per_trial_scalar of per-call SwapDelta, allocs_per_trial (the
// worst window) and ns_per_apply.
func Hotpath(circuits []string, dur time.Duration, windows int) (*Report, error) {
	if len(circuits) == 0 {
		circuits = netlist.BenchmarkNames()
	}
	if dur <= 0 {
		dur = time.Second
	}
	if windows < 1 {
		windows = DefaultHotpathWindows
	}
	rep := newReport("hotpath", "trial-evaluation hot path, batched kernel headline (best-of-windows; the ns_per_trial stddev is the cross-window spread, which is large on shared hosts)",
		map[string]any{"batch_size": hotpathBatch, "windows": windows, "kernel_seconds": dur.Seconds()})
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
		rep.add("instance", name, "cells", float64(st.Cells))
		rep.add("instance", name, "nets", float64(st.Nets))
		rep.add("instance", name, "pins", float64(st.Pins))
		trialNs := batchNs / hotpathBatch
		for _, r := range []Record{
			{Metric: "ns_per_trial", Value: trialNs, Stddev: batchDev / hotpathBatch},
			{Metric: "trials_per_sec", Value: 1e9 / trialNs},
			{Metric: "ns_per_trial_scalar", Value: scalarNs},
			{Metric: "ns_per_apply", Value: applyNs},
		} {
			r.Layer, r.Workload, r.Windows = "kernel", name, windows
			rep.Records = append(rep.Records, r)
		}
		rep.add("kernel", name, "allocs_per_trial", batchAllocs/hotpathBatch)
	}
	return rep, nil
}

// HotpathGuard checks a freshly regenerated report (whose baseline
// Write filled with the previously committed records) for regressions
// on the named circuits (comma-separated): for each it fails when the
// new trials_per_sec falls more than tolerance below the baseline's and
// when the batched kernel allocates — both asserted from the JSON
// artifact itself, so the committed numbers and the guarded numbers can
// never diverge. The CI bench-smoke job runs it after ptsbench -hotpath
// so a kernel change that loses more than the tolerance shows up as a
// red build, not a quietly worse committed number.
func HotpathGuard(rep *Report, circuits string, tolerance float64) (string, error) {
	var msgs []string
	for _, circuit := range strings.Split(circuits, ",") {
		circuit = strings.TrimSpace(circuit)
		if circuit == "" {
			continue
		}
		cur := find(rep.Records, "kernel", circuit, "trials_per_sec")
		allocs := find(rep.Records, "kernel", circuit, "allocs_per_trial")
		if cur == nil || allocs == nil {
			return "", fmt.Errorf("hotpath guard: circuit %q not in results", circuit)
		}
		if allocs.Value != 0 {
			return "", fmt.Errorf("hotpath guard: %s allocates %.2f/trial, want 0", circuit, allocs.Value)
		}
		base := find(rep.Baseline, "kernel", circuit, "trials_per_sec")
		if base == nil {
			msgs = append(msgs, fmt.Sprintf("%s: no baseline to compare against (first run)", circuit))
			continue
		}
		floor := base.Value * (1 - tolerance)
		msg := fmt.Sprintf("%s %.0f trials/sec vs baseline %.0f (floor %.0f at %.0f%% tolerance)",
			circuit, cur.Value, base.Value, floor, tolerance*100)
		if cur.Value < floor {
			return "", fmt.Errorf("hotpath guard: %s: REGRESSION", msg)
		}
		msgs = append(msgs, msg+": ok")
	}
	if len(msgs) == 0 {
		return "", fmt.Errorf("hotpath guard: no circuits named")
	}
	return "hotpath guard: " + strings.Join(msgs, "; "), nil
}
