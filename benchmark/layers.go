package main

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"pts/internal/cluster"
	"pts/internal/pvm"
	"pts/internal/pvm/nettrans"
	"pts/internal/tabu"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stateModules are the state decorators' module names: the placement
// evaluator (internal/cost over internal/placement) and the two
// scheduling states.
var stateModules = []string{"cost", "jobshop", "flowshop"}

// perLayerUnits lists every per-layer metric in report order with its
// unit. Each workload reports all of them; a layer the workload does
// not exercise reads 0.
func perLayerUnits() [][2]string {
	m := [][2]string{
		{"core.round_p50_ms", "ms"},
		{"core.msgs_per_op", "count"},
		{"core.trials_per_op", "count"},
		{"core.cpu_util", "fraction"},
	}
	for _, mod := range stateModules {
		m = append(m,
			[2]string{mod + ".delta_ns_per_cand", "ns"},
			[2]string{mod + ".cands_per_batch", "count"},
			[2]string{mod + ".batch_calls_per_op", "count"},
			[2]string{mod + ".apply_ns", "ns"},
			[2]string{mod + ".apply_calls_per_op", "count"},
			[2]string{mod + ".core_share", "fraction"},
			[2]string{mod + ".restore_us", "us"},
			[2]string{mod + ".restore_calls_per_op", "count"},
			[2]string{mod + ".newstate_us", "us"},
			[2]string{mod + ".newstate_calls_per_op", "count"},
		)
	}
	return append(m,
		[2]string{"timing.refresh_us", "us"},
		[2]string{"timing.refresh_calls_per_op", "count"},
		[2]string{"tabu.compound_us", "us"},
		[2]string{"tabu.select_ns", "ns"},
		[2]string{"pvm.inproc_rtt_us", "us"},
		[2]string{"pvm.virtual_ns_per_msg", "ns"},
		[2]string{"nettrans.rtt_us", "us"},
		[2]string{"serve.submit_ms", "ms"},
		[2]string{"serve.queue_ms", "ms"},
		[2]string{"serve.run_ms", "ms"},
		[2]string{"serve.tail_ms", "ms"},
		[2]string{"serve.dist_overhead_ms", "ms"},
		[2]string{"store.put_ms_p50", "ms"},
		[2]string{"store.put_ms_p99", "ms"},
		[2]string{"store.puts_per_op", "count"},
		[2]string{"store.bytes_per_op", "bytes"},
		[2]string{"go.allocs_per_op", "count"},
		[2]string{"go.gc_per_op", "count"},
		[2]string{"trace.ops_ratio", "ratio"},
	)
}

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	seeds  []uint64
	book   *seedBook
	plain  phase // untraced
	traced phase
	spans  []span
	hot    map[string]*hotCounts
	refs   map[uint64]refResult
	micro  microResult
}

// perLayer computes every per-layer metric.
func perLayer(in layerInput) map[string]metric {
	v := map[string]float64{}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v["core.round_p50_ms"] = median(spanDurations(in.spans, "core.round")) / 1e6
	v["core.msgs_per_op"], _ = seedMean(in.book, in.seeds, exactSeeds, func(o opOut) float64 { return float64(o.msgs) })
	v["core.trials_per_op"], _ = seedMean(in.book, in.seeds, exactSeeds, func(o opOut) float64 { return float64(o.trials) })
	v["core.cpu_util"] = ratio(in.plain.cpu.Seconds(), in.plain.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))

	for _, mod := range stateModules {
		h := in.hot[mod]
		if h == nil {
			h = &hotCounts{}
		}
		ops := float64(h.ops)
		v[mod+".delta_ns_per_cand"] = ratio(float64(h.deltaNs), float64(h.cands))
		v[mod+".cands_per_batch"] = ratio(float64(h.batchCands), float64(h.deltaCalls))
		v[mod+".batch_calls_per_op"] = ratio(float64(h.deltaCalls), ops)
		v[mod+".apply_ns"] = ratio(float64(h.applyNs), float64(h.applyCalls))
		v[mod+".apply_calls_per_op"] = ratio(float64(h.applyCalls), ops)
		v[mod+".core_share"] = ratio(float64(h.deltaNs+h.applyNs), float64(h.cpuNs))
		n, mean := spanStats(in.spans, mod+".Restore")
		v[mod+".restore_us"], v[mod+".restore_calls_per_op"] = mean/1e3, ratio(float64(n), ops)
		n, mean = spanStats(in.spans, mod+".NewState")
		v[mod+".newstate_us"], v[mod+".newstate_calls_per_op"] = mean/1e3, ratio(float64(n), ops)
	}
	if h := in.hot["cost"]; h != nil {
		n, mean := spanStats(in.spans, "timing.Refresh")
		v["timing.refresh_us"], v["timing.refresh_calls_per_op"] = mean/1e3, ratio(float64(n), float64(h.ops))
	}

	v["tabu.compound_us"] = in.micro.compoundUs
	v["tabu.select_ns"] = in.micro.selectNs
	v["pvm.inproc_rtt_us"] = in.micro.inprocRTTUs
	v["pvm.virtual_ns_per_msg"] = in.micro.virtualNsPerMsg
	v["nettrans.rtt_us"] = in.micro.netRTTUs

	ok := succeeded(in.traced.recs)
	if len(ok) > 0 && ok[0].out.serve != nil {
		var sub, que, run, tail []time.Duration
		for _, r := range ok {
			s := r.out.serve
			sub, que, run, tail = append(sub, s.submit), append(que, s.queue), append(run, s.run), append(tail, s.tail)
		}
		v["serve.submit_ms"] = median(durationsMs(sub))
		v["serve.queue_ms"] = median(durationsMs(que))
		v["serve.run_ms"] = median(durationsMs(run))
		v["serve.tail_ms"] = median(durationsMs(tail))
		var walls []time.Duration
		for _, ref := range in.refs {
			walls = append(walls, ref.wall)
		}
		v["serve.dist_overhead_ms"] = v["serve.run_ms"] - median(durationsMs(walls))

		puts := spanDurations(in.spans, "store.Put")
		sort.Float64s(puts)
		v["store.put_ms_p50"] = percentile(puts, 50) / 1e6
		v["store.put_ms_p99"] = percentile(puts, 99) / 1e6
		var bytes int
		for _, s := range in.spans {
			bytes += s.Bytes
		}
		v["store.puts_per_op"] = ratio(float64(len(puts)), float64(len(in.traced.recs)))
		v["store.bytes_per_op"] = ratio(float64(bytes), float64(len(in.traced.recs)))
	}

	plainOps := float64(len(in.plain.recs))
	v["go.allocs_per_op"] = ratio(float64(in.plain.allocs), plainOps)
	v["go.gc_per_op"] = ratio(float64(in.plain.gcs), plainOps)
	v["trace.ops_ratio"] = ratio(median(windowRates(succeeded(in.traced.recs), in.traced.clients)),
		median(windowRates(succeeded(in.plain.recs), in.plain.clients)))

	out := make(map[string]metric, len(v))
	for _, nu := range perLayerUnits() {
		out[nu[0]] = metric{Value: v[nu[0]], Unit: nu[1]}
	}
	return out
}

// microResult holds the direct-call measurements of the layers a solve
// reaches only through the engine.
type microResult struct {
	compoundUs, selectNs         float64
	inprocRTTUs, virtualNsPerMsg float64
	netRTTUs                     float64
}

// selectSink keeps the selection benchmark's result live.
var selectSink int

// runMicro measures the tabu kernels on a fresh state of the workload
// and a two-task ping-pong on each transport.
func runMicro(ctx context.Context, w *workload, seed uint64) (microResult, error) {
	var m microResult
	p, err := w.build()
	if err != nil {
		return m, err
	}
	st, err := p.Initial(seed)
	if err != nil {
		return m, err
	}

	// BuildCompoundBatch with the paper's m=12, d=4 over the whole
	// element range, undoing each move so the state stays put.
	const compounds = 2000
	r := rand.New(rand.NewSource(int64(seed)))
	params := tabu.CompoundParams{Trials: 12, Depth: 4}
	var sc tabu.BatchScratch
	var cands []tabu.CompoundMove
	var total time.Duration
	for i := 0; i < compounds; i++ {
		t0 := time.Now()
		mv := tabu.BuildCompoundBatch(st, r, params, &sc, nil)
		total += time.Since(t0)
		mv.Undo(st)
		if len(cands) < w.clws && !mv.Empty() {
			cands = append(cands, mv)
		}
	}
	m.compoundUs = total.Seconds() * 1e6 / compounds
	if len(cands) == 0 {
		return m, errors.New("micro-benchmark built no compound move")
	}

	// SelectAdmissibleBatch over the TSW's candidate list with the first
	// candidate tabu, so the aspiration test runs too.
	const selects = 200000
	list := tabu.NewList()
	for _, s := range cands[0].Swaps {
		list.Add(s.Attribute(), 1<<40)
	}
	var ssc tabu.SelectScratch
	cost := st.Cost()
	t0 := time.Now()
	for i := 0; i < selects; i++ {
		selectSink += tabu.SelectAdmissibleBatch(cands, cost, cost, list, int64(i), &ssc).Index
	}
	m.selectNs = float64(time.Since(t0).Nanoseconds()) / selects

	const inproc, net = 20000, 2000
	clus := cluster.Homogeneous(2, 1)
	spawnLocal := func(env pvm.Env) pvm.TaskID { return env.Spawn("echo", 1, echo(env.Self())) }
	var el time.Duration
	if _, err := pvm.RunReal(pvm.Options{Cluster: clus, Seed: seed}, pingRoot(inproc, spawnLocal, &el)); err != nil {
		return m, fmt.Errorf("in-process ping-pong: %w", err)
	}
	m.inprocRTTUs = el.Seconds() * 1e6 / inproc
	if _, err := pvm.RunVirtual(pvm.Options{Cluster: clus, Seed: seed}, pingRoot(inproc, spawnLocal, &el)); err != nil {
		return m, fmt.Errorf("virtual ping-pong: %w", err)
	}
	m.virtualNsPerMsg = float64(el.Nanoseconds()) / (2 * inproc)
	if el, err = netPingPong(ctx, seed, net); err != nil {
		return m, err
	}
	m.netRTTUs = el.Seconds() * 1e6 / net
	return m, nil
}

const (
	tagPing pvm.Tag = iota + 1
	tagPong
	tagStop
)

const echoKind = "benchmark.echo"

// echoSpec rebuilds an echo task in a worker process.
type echoSpec struct{ Parent pvm.TaskID }

func init() { gob.Register(echoSpec{}) }

// echo answers every ping with a pong until told to stop.
func echo(parent pvm.TaskID) pvm.TaskFunc {
	return func(env pvm.Env) {
		for {
			m := env.Recv(tagPing, tagStop)
			if m.Tag == tagStop {
				return
			}
			env.Send(parent, tagPong, m.Data)
		}
	}
}

func echoFactory(kind string, data any) (pvm.TaskFunc, error) {
	spec, ok := data.(echoSpec)
	if kind != echoKind || !ok {
		return nil, fmt.Errorf("unknown task kind %q (%T)", kind, data)
	}
	return echo(spec.Parent), nil
}

// pingRoot spawns the echo task, warms up, then times n round trips.
func pingRoot(n int, spawn func(pvm.Env) pvm.TaskID, el *time.Duration) pvm.TaskFunc {
	return func(env pvm.Env) {
		child := spawn(env)
		for i := 0; i < n/10; i++ {
			env.Send(child, tagPing, i)
			env.Recv(tagPong)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			env.Send(child, tagPing, i)
			env.Recv(tagPong)
		}
		*el = time.Since(t0)
		env.Send(child, tagStop, 0)
	}
}

// echoHandler is the worker-process side of the TCP ping-pong.
type echoHandler struct{}

func (echoHandler) Start(any) (nettrans.TaskFactory, error) { return echoFactory, nil }
func (echoHandler) Done(any)                                {}

// netPingPong runs the ping-pong over a loopback nettrans master with
// one in-process worker daemon hosting the echo task.
func netPingPong(ctx context.Context, seed uint64, n int) (time.Duration, error) {
	m, err := nettrans.Listen(nettrans.MasterConfig{Addr: "127.0.0.1:0", Workers: 1})
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	worker := make(chan error, 1)
	go func() {
		worker <- nettrans.RunWorker(ctx, nettrans.WorkerConfig{Addr: m.Addr(), Name: "echo", Jobs: 1}, echoHandler{})
	}()
	spawn := func(env pvm.Env) pvm.TaskID {
		return env.SpawnSpec("echo", 1, pvm.Spec{Kind: echoKind, Data: echoSpec{Parent: env.Self()}})
	}
	var el time.Duration
	_, runErr := pvm.RunReal(pvm.Options{Transport: m, Spawner: echoFactory, Seed: seed}, pingRoot(n, spawn, &el))
	finErr := m.Finish(nil)
	if runErr != nil {
		cancel()
	}
	werr := <-worker
	if err := errors.Join(runErr, finErr, werr); err != nil {
		return 0, fmt.Errorf("loopback ping-pong: %w", err)
	}
	return el, nil
}
