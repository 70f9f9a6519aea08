package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Report is the one schema of every results/BENCH_<scenario>.json: a
// header naming the host and the scenario's inputs, then flat records.
// Write fills Baseline from the file it replaces, so a regenerated
// report always carries the numbers it superseded.
type Report struct {
	Scenario string `json:"scenario"`
	Note     string `json:"note,omitempty"`
	// Host header. Reports converted from an older schema leave the
	// fields that schema never recorded empty.
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs,omitempty"`
	NumCPU      int    `json:"num_cpu,omitempty"`
	GeneratedAt string `json:"generated_at"`
	// Inputs are the scenario parameters the records were measured at.
	Inputs          map[string]any `json:"inputs"`
	Records         []Record       `json:"records"`
	BaselineComment string         `json:"baseline_comment,omitempty"`
	Baseline        []Record       `json:"baseline,omitempty"`
}

// Record is one measured number. Layer names the part of the stack it
// measures (kernel, search, engine, serve, instance) or the paper's
// figure (fig05 … fig11), Workload the circuit, instance, side of a
// comparison or a figure's circuit and x value. Windows is set on
// best-of-K measurements, whose Value is the fastest window and Stddev
// the spread across the K windows.
type Record struct {
	Layer    string  `json:"layer"`
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Stddev   float64 `json:"stddev,omitempty"`
	Windows  int     `json:"windows,omitempty"`
}

// newReport stamps the host header on an empty report.
func newReport(scenario, note string, inputs map[string]any) *Report {
	regen := "ptsbench -" + scenario
	if scenario == "paper" {
		regen = "ptsbench -fig all" // the figures' flag is -fig
	}
	return &Report{
		Scenario:    scenario,
		Note:        note + "; regenerate with: " + regen,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Inputs:      inputs,
	}
}

// add appends one record.
func (r *Report) add(layer, workload, metric string, v float64) {
	r.Records = append(r.Records, Record{Layer: layer, Workload: workload, Metric: metric, Value: v})
}

// find returns the record of (layer, workload, metric) in rs, or nil.
func find(rs []Record, layer, workload, metric string) *Record {
	for i := range rs {
		if rs[i].Layer == layer && rs[i].Workload == workload && rs[i].Metric == metric {
			return &rs[i]
		}
	}
	return nil
}

// Write writes the report as <dir>/BENCH_<scenario>.json. When the file
// already exists, its records become the new report's Baseline, with a
// comment recording their provenance.
func Write(rep *Report, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+rep.Scenario+".json")
	if old, err := Read(path); err == nil && len(old.Records) > 0 {
		rep.Baseline = old.Records
		rep.BaselineComment = fmt.Sprintf("previous committed records (%s, %s)", old.GeneratedAt, old.GoVersion)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read loads a BENCH_*.json report.
func Read(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// Render formats the report for the terminal: the header, the inputs,
// and one line per record, with the baseline value and ratio when the
// baseline has the same record.
func Render(rep *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s, GOMAXPROCS=%d, NumCPU=%d)\n", rep.Scenario, rep.GoVersion, rep.GOMAXPROCS, rep.NumCPU)
	fmt.Fprintf(&sb, "inputs %v\n", rep.Inputs)
	for _, r := range rep.Records {
		fmt.Fprintf(&sb, "  %-8s %-18s %-22s %14.6g", r.Layer, r.Workload, r.Metric, r.Value)
		if r.Stddev > 0 {
			fmt.Fprintf(&sb, " ± %.3g", r.Stddev)
		}
		if b := find(rep.Baseline, r.Layer, r.Workload, r.Metric); b != nil && b.Value != 0 {
			fmt.Fprintf(&sb, "   (baseline %.6g, %.2fx)", b.Value, r.Value/b.Value)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// scenario normalizes Opts for a scenario benchmark: a background
// context, Scale 1 when unset, and the scenario's default circuit, seed
// and work-emulation factor where Circuits, Seed and WorkScale are
// unset. A scenario runs on Circuits[0] only.
func (o Opts) scenario(circuit string, seed uint64, workScale float64) Opts {
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Circuits) == 0 {
		o.Circuits = []string{circuit}
	}
	if o.Seed == 0 {
		o.Seed = seed
	}
	if o.WorkScale <= 0 {
		o.WorkScale = workScale
	}
	return o
}
