package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactMetrics are deterministic for a seed list on a reproducible
// workload: two runs of the same code with the same seed must agree on
// them exactly.
var exactMetrics = []string{"best_cost_mean", "core.msgs_per_op", "core.trials_per_op"}

// loadSpec reads BENCHMARK.json from the repository root, found from
// either the root or the benchmark directory.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return spec, err
		}
		return spec, json.Unmarshal(data, &spec)
	}
	return spec, errors.New("BENCHMARK.json not found in . or ..")
}

// compareFiles compares the runs in record file b against those in a,
// one row per workload and one verdict per end-to-end metric:
//
//   - worse / better: b's median moved past the metric's bound;
//   - same: it stayed within the bound;
//   - unresolved: either side's run-to-run spread, (max-min)/median,
//     exceeds the bound, and not every run of b beats every run of a.
//
// Exact metrics must be identical in every run of both files. It
// reports whether no verdict was worse or unresolved and every exact
// metric matched.
func compareFiles(aPath, bPath string, w io.Writer) (bool, error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-14s", "workload")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(w, " %-14s", m.Name)
	}
	fmt.Fprintf(w, " %s\n", "exact")
	var details []string
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "%-14s", wl.Name)
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name, false), values(b, wl.Name, m.Name, false)
			v := "missing"
			if len(va) > 0 && len(vb) > 0 {
				var change, spread float64
				v, change, spread = verdict(va, vb, m.Better == "lower", m.Bound)
				details = append(details, fmt.Sprintf("%s %s: %.6g -> %.6g %s (worse by %+.1f%%, spread %.1f%%, bound %.0f%%)",
					wl.Name, m.Name, median(va), median(vb), m.Unit, 100*change, 100*spread, 100*m.Bound))
			}
			if v != "same" && v != "better" {
				ok = false
			}
			fmt.Fprintf(w, " %-14s", v)
		}
		exact := exactVerdict(a, b, wl.Name)
		if strings.HasPrefix(exact, "differs") {
			ok = false
		}
		fmt.Fprintf(w, " %s\n", exact)
	}
	fmt.Fprintln(w, strings.Join(details, "\n"))
	return ok, nil
}

// exactVerdict checks the exact metrics of a reproducible workload:
// every run of both files must agree on each. Workloads whose results
// depend on timing have none ("n/a").
func exactVerdict(a, b recordFile, workload string) string {
	if w, ok := workloadByName(workload); !ok || !w.reproducible {
		return "n/a"
	}
	for _, name := range exactMetrics {
		for _, traced := range []bool{false, true} {
			vals := append(values(a, workload, name, traced), values(b, workload, name, traced)...)
			for _, x := range vals {
				if x != vals[0] {
					return "differs:" + name
				}
			}
		}
	}
	return "same"
}

// values collects a metric of one workload from every run of the file
// with the given trace mode.
func values(rf recordFile, workload, name string, traced bool) []float64 {
	var out []float64
	for _, run := range rf.Runs {
		if run.Trace != traced {
			continue
		}
		for _, wr := range run.Workloads {
			if m, ok := wr.Metrics[name]; ok && wr.Name == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict classifies b against a; change is the relative move of the
// median in the worse direction, spread the larger relative range.
func verdict(a, b []float64, lowerBetter bool, bound float64) (v string, change, spread float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	} else if mb != 0 {
		change = 1
	}
	if !lowerBetter {
		change = -change
	}
	spread = max(relSpread(a), relSpread(b))
	bBeatsAll := true
	for _, x := range a {
		for _, y := range b {
			if (lowerBetter && y >= x) || (!lowerBetter && y <= x) {
				bBeatsAll = false
			}
		}
	}
	switch {
	case spread > bound && bBeatsAll:
		return "better", change, spread
	case spread > bound:
		return "unresolved", change, spread
	case change > bound:
		return "worse", change, spread
	case change < -bound:
		return "better", change, spread
	}
	return "same", change, spread
}

// relSpread is (max-min)/median of xs.
func relSpread(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	if m := median(xs); m != 0 {
		return (hi - lo) / m
	}
	return 0
}
