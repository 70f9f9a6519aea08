// Command benchmark is the repository's end-to-end benchmark: four
// workloads driven through the public pts API and measured from
// outside the program. README.md describes the workloads, the metrics,
// and how to read a trace.
//
//	go run . -workload <name|list|all> -seed <n> [-seconds 20] [-trace 0|1] [-spans <file>] [-out <file>]
//	go run . -compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero
// when any op fails a correctness gate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	// The benchmark's own load and the program share two cores, the
	// size of the host the workloads were sized on.
	runtime.GOMAXPROCS(2)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string
	spans   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "workload name, comma-separated list, or all")
	seed := fs.Uint64("seed", 1, "run seed; each workload's seed list derives from it")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload run")
	traceOn := fs.Int("trace", 0, "1 runs the workload untraced then traced and reports the per-layer metrics")
	spans := fs.String("spans", "", "write the traced run's spans to this file as JSON lines")
	out := fs.String("out", "", "append the run record to this JSON file")
	workdir := fs.String("workdir", ".bench_build/run", "scratch directory for stores and per-workload records")
	compare := fs.Bool("compare", false, "compare two record files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two record files")
			return 2
		}
		ok, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	var ws []*workload
	if *names == "all" {
		ws = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloadByName(n)
			if !ok {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", n)
				return 2
			}
			ws = append(ws, w)
		}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *traceOn == 1, workdir: *workdir, spans: *spans}
	rec := runRecord{Env: environment(*workdir), Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace}

	// A run that hangs is cut off after three times its measured length
	// plus a minute; its pending ops then fail.
	limit := time.Duration(len(ws)) * (3*time.Duration(rc.seconds*float64(time.Second)) + time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	logf := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	if len(ws) == 1 {
		res, err := runWorkload(ctx, ws[0], rc, logf)
		if err != nil {
			logf("benchmark: %s: %v", ws[0].name, err)
			return 1
		}
		rec.Workloads = append(rec.Workloads, res)
	} else {
		// Each workload runs in its own process, as a single-workload
		// invocation would, so peak RSS and the heap start fresh.
		for _, w := range ws {
			res, err := runChild(ctx, w, rc, stderr)
			if err != nil {
				logf("benchmark: %s: %v", w.name, err)
				return 1
			}
			rec.Workloads = append(rec.Workloads, res)
		}
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			logf("benchmark: %v", err)
			return 1
		}
	}
	line := summarize(rec, stdout)
	data, err := json.Marshal(line)
	if err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct || line.Failed > 0 {
		return 1
	}
	return 0
}

// resultLine is the contract of the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize folds the record into the result line. With several
// workloads the metric names are prefixed "<workload>/" and a table of
// every metric is printed first.
func summarize(rec runRecord, stdout io.Writer) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, w := range rec.Workloads {
		line.Correct = line.Correct && w.Correct
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		prefix := ""
		if len(rec.Workloads) > 1 {
			prefix = w.Name + "/"
		}
		for k, m := range w.Metrics {
			line.Metrics[prefix+k] = m
		}
	}
	if len(rec.Workloads) > 1 {
		for _, w := range rec.Workloads {
			fmt.Fprintf(stdout, "%s  (correct %v, %d attempted, %d failed)\n", w.Name, w.Correct, w.Attempted, w.Failed)
			keys := make([]string, 0, len(w.Metrics))
			for k := range w.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", k, w.Metrics[k].Value, w.Metrics[k].Unit)
			}
		}
	}
	return line
}

// runRecord is one invocation's full result, as -out appends it.
type runRecord struct {
	Env       envInfo          `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult is one workload's outcome.
type workloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info records how the metrics were taken: op and sample counts,
	// the tail percentile used, and the first failures.
	Info map[string]any `json:"info"`
}

// recordFile is the -out file: the runs appended to it so far.
type recordFile struct {
	Runs []runRecord `json:"runs"`
}

func readRecords(path string) (recordFile, error) {
	var rf recordFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func appendRecord(path string, rec runRecord) error {
	rf, err := readRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runChild runs one workload in a child process and reads back its
// record.
func runChild(ctx context.Context, w *workload, rc runConfig, stderr io.Writer) (workloadResult, error) {
	self, err := os.Executable()
	if err != nil {
		return workloadResult{}, err
	}
	out := filepath.Join(rc.workdir, "child-"+w.name+".json")
	if err := os.Remove(out); err != nil && !errors.Is(err, os.ErrNotExist) {
		return workloadResult{}, err
	}
	traceArg := "0"
	if rc.trace {
		traceArg = "1"
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatUint(rc.seed, 10),
		"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-trace", traceArg,
		"-workdir", rc.workdir, "-out", out}
	if rc.spans != "" {
		ext := filepath.Ext(rc.spans)
		args = append(args, "-spans", strings.TrimSuffix(rc.spans, ext)+"-"+w.name+ext)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, stderr
	runErr := cmd.Run()
	rf, err := readRecords(out)
	if err != nil {
		return workloadResult{}, errors.Join(runErr, err)
	}
	if len(rf.Runs) != 1 || len(rf.Runs[0].Workloads) != 1 {
		return workloadResult{}, fmt.Errorf("child record %s holds %d runs", out, len(rf.Runs))
	}
	return rf.Runs[0].Workloads[0], nil
}

// envInfo is the environment every record carries.
type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// StoreFS is the filesystem type of the directory serve-ta001's file
	// store lives in, which sets the cost of its fsyncs.
	StoreFS string `json:"store_fs"`
}

func environment(workdir string) envInfo {
	e := envInfo{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: "unknown", StoreFS: fsType(workdir)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			e.Commit = rev + dirty
		}
	}
	return e
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x01021997: "9p", 0x6a656a63: "virtiofs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// runWorkload runs one workload in this process: the end-to-end
// measurement, or with rc.trace the untraced and traced phases that
// give the per-layer metrics. Every op, warm-up ones included, counts
// as attempted.
func runWorkload(ctx context.Context, w *workload, rc runConfig, logf func(string, ...any)) (workloadResult, error) {
	r := &runner{ctx: ctx, w: w, rc: rc, seeds: deriveSeeds(rc.seed, w.name, w.seeds), book: newSeedBook(w.reproducible)}
	res := workloadResult{Name: w.name, Info: map[string]any{"seeds": w.seeds, "clients": w.clients, "reproducible": w.reproducible}}
	if w.prepare != nil {
		var err error
		if r.refs, err = w.prepare(ctx, r.seeds, nil); err != nil {
			return res, err
		}
	}
	var err error
	if rc.trace {
		res.Metrics, err = r.layers(res.Info)
	} else {
		res.Metrics, err = r.endToEnd(res.Info)
	}
	if err != nil {
		return res, err
	}

	res.Attempted = len(r.all)
	var errs []string
	for _, op := range r.all {
		if op.err != nil {
			res.Failed++
			if len(errs) < 5 {
				errs = append(errs, op.err.Error())
			}
		}
	}
	for _, e := range errs {
		logf("%s: %s", w.name, e)
	}
	if len(errs) > 0 {
		res.Info["errors"] = errs
	}
	res.Correct = res.Failed == 0
	if _, covered := seedMean(r.book, r.seeds, len(r.seeds), func(opOut) float64 { return 0 }); !covered && !rc.trace {
		res.Correct = false
		logf("%s: the run did not verify every seed of its list", w.name)
	}
	return res, nil
}

// runner is one workload run's state.
type runner struct {
	ctx   context.Context
	w     *workload
	rc    runConfig
	seeds []uint64
	refs  map[uint64]refResult
	book  *seedBook
	all   []opRec // every op run, for the failure count
}

func (r *runner) open(tr *tracer) (*stack, error) {
	return r.w.openStack(r.ctx, openEnv{dir: r.rc.workdir, tr: tr, refs: r.refs})
}

// warm runs the untimed warm-up: a few ops of the list's first seed,
// which a reproducible workload must repeat bit for bit.
func (r *runner) warm(st *stack, tr *tracer) {
	recs, _ := r.runOps(st, r.seeds[:1], warmOps*r.w.clients, time.Time{}, tr)
	r.all = append(r.all, recs...)
}

// phase measures for dur and at least minOps ops.
func (r *runner) phase(st *stack, minOps int, dur time.Duration, tr *tracer) phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := processCPU(), time.Now()
	recs, calCPU := r.runOps(st, r.seeds, minOps, t0.Add(dur), tr)
	ph := phase{recs: recs, clients: r.w.clients, cpu: processCPU() - cpu0 - calCPU, wall: time.Since(t0)}
	runtime.ReadMemStats(&m1)
	ph.allocs, ph.gcs = m1.Mallocs-m0.Mallocs, m1.NumGC-m0.NumGC
	r.all = append(r.all, recs...)
	return ph
}

func (r *runner) total() time.Duration { return time.Duration(r.rc.seconds * float64(time.Second)) }

// setupReps is how many times an end-to-end run sets up; setup_s is
// the median.
const setupReps = 21

// endToEnd sets up setupReps times, each timed between calibration
// kernels like an op, then measures until the deadline and the whole
// seed list is covered.
func (r *runner) endToEnd(info map[string]any) (map[string]metric, error) {
	cal := newCalibrator()
	before := cal.unit()
	var setups []opRec
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			// Collect the closed stack's garbage, so the repetitions do not
			// pile up into the run's peak RSS.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = r.open(nil); err != nil {
			return nil, err
		}
		t1 := time.Now()
		after := cal.unit()
		// A set-up is far shorter than the steal counter's tick, so its
		// steal share is not measured.
		setups = append(setups, opRec{out: opOut{start: t0, end: t1}, slowdown: slowdown(speed(before, after), 0, r.w.calibExp)})
		before = after
	}
	r.warm(st, nil)
	ph := r.phase(st, len(r.seeds), r.total(), nil)
	rss := peakRSSMB()
	if err := st.close(); err != nil {
		return nil, err
	}
	return endToEnd(r.w, r.seeds, r.book, ph, setups, rss, info), nil
}

// layers runs half the time untraced and half traced on a fresh stack,
// then the micro-benchmarks, and computes the per-layer metrics.
func (r *runner) layers(info map[string]any) (map[string]metric, error) {
	minOps := min(exactSeeds, len(r.seeds))
	st, err := r.open(nil)
	if err != nil {
		return nil, err
	}
	r.warm(st, nil)
	plain := r.phase(st, minOps, r.total()/2, nil)
	if err := st.close(); err != nil {
		return nil, err
	}

	tr := newTracer()
	if st, err = r.open(tr); err != nil {
		return nil, err
	}
	r.warm(st, tr)
	tr.reset()
	if r.w.prepare != nil {
		refs, err := r.w.prepare(r.ctx, r.seeds, tr)
		if err != nil {
			return nil, err
		}
		for s, ref := range refs {
			if r.refs[s].cost != ref.cost || r.refs[s].hash != ref.hash {
				return nil, fmt.Errorf("traced reference solve of seed %d differs from the untraced one", s)
			}
		}
	}
	traced := r.phase(st, minOps, r.total()/2, tr)
	if err := st.close(); err != nil {
		return nil, err
	}
	micro, err := runMicro(r.ctx, r.w, r.seeds[0])
	if err != nil {
		return nil, err
	}
	spans := tr.finish()
	if r.rc.spans != "" {
		if err := writeSpans(r.rc.spans, spans); err != nil {
			return nil, err
		}
	}
	info["ops_untraced"], info["ops_traced"] = len(plain.recs), len(traced.recs)
	info["ops_per_s_untraced"] = median(windowRates(succeeded(plain.recs), r.w.clients))
	info["ops_per_s_traced"] = median(windowRates(succeeded(traced.recs), r.w.clients))
	info["spans"] = len(spans)
	return perLayer(layerInput{seeds: r.seeds, book: r.book, plain: plain, traced: traced,
		spans: spans, hot: tr.hot, refs: r.refs, micro: micro}), nil
}

// endToEnd computes the end-to-end metrics of an untraced run and
// records how they were taken in info. Timings are at the reference
// host speed; info keeps the raw ones.
func endToEnd(w *workload, seeds []uint64, book *seedBook, ph phase, setups []opRec, rss float64, info map[string]any) map[string]metric {
	ok := succeeded(ph.recs)
	ms, rawLats := make([]float64, len(ok)), make([]time.Duration, len(ok))
	for i, r := range ok {
		ms[i], rawLats[i] = r.normMs(), r.latency()
	}
	sort.Float64s(ms)
	rawMs := durationsMs(rawLats)
	setupS := make([]float64, len(setups))
	for i, r := range setups {
		setupS[i] = r.normMs() / 1e3
	}
	pct := tailPercentile(w.tailPct, len(ms))
	best, _ := seedMean(book, seeds, len(seeds), func(o opOut) float64 { return o.cost })
	var cpuPerOp, normCPUPerOp float64
	if len(ph.recs) > 0 {
		cpuPerOp = float64(ph.cpu) / 1e6 / float64(len(ph.recs))
		normCPUPerOp = cpuPerOp / ph.mean(func(r opRec) float64 { return r.cpuSlowdown })
	}
	rates := windowRates(ok, w.clients)
	info["ops"] = len(ph.recs)
	info["window_ops_per_s"] = rates
	info["measured_s"] = ph.wall.Seconds()
	info["tail_percentile"] = pct
	info["tail_samples"] = len(ms)
	info["setup_reps"] = len(setups)
	info["slowdown"] = ph.mean(func(r opRec) float64 { return r.slowdown })
	info["steal_share"] = ph.mean(func(r opRec) float64 { return r.steal })
	info["raw"] = map[string]float64{
		"lat_p50_ms":    percentile(rawMs, 50),
		"lat_tail_ms":   percentile(rawMs, pct),
		"cpu_ms_per_op": cpuPerOp,
	}
	return map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"ops_per_s":      {median(rates), "ops/s"},
		"lat_p50_ms":     {percentile(ms, 50), "ms"},
		"lat_tail_ms":    {percentile(ms, pct), "ms"},
		"cpu_ms_per_op":  {normCPUPerOp, "ms"},
		"peak_rss_mb":    {rss, "MB"},
		"best_cost_mean": {best, "cost"},
	}
}
