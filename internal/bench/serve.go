package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/pvm/nettrans"
	"pts/internal/serve"
)

// Serving-mode benchmark: the same stream of small solver jobs pushed
// through one ptsd-style scheduler over a loopback worker fleet, first
// one job at a time, then with the fleet's full concurrency. The
// measured quantities are service metrics — jobs per minute and the
// per-job submit-to-done latency distribution — rather than solver
// quality: every job is the identical fixed-seed run, so the comparison
// isolates what multiplexing concurrent runs over disjoint worker
// leases buys (and costs) on a shared fleet.

// The serve scenario's fleet and job stream: serveJobs identical jobs
// per concurrency level, each leasing serveWorkersPerJob of the
// serveFleet loopback workers and running serveGlobalIters x
// serveLocalIters iterations (Opts.Scale multiplies the local
// iterations). serveCircuit, serveSeed and serveWorkScale are the
// defaults for Opts.Circuits, Seed and WorkScale. Without work
// emulation every job finishes in a few milliseconds of pure protocol
// overhead and concurrency has nothing to overlap; with it each job
// costs real wall time on its leased worker, so the levels measure
// genuine fleet sharing.
const (
	serveFleet         = 4
	serveWorkersPerJob = 1
	serveJobs          = 12
	serveGlobalIters   = 3
	serveLocalIters    = 10
	serveCircuit       = "highway"
	serveSeed          = 7
	serveWorkScale     = 25
)

// serveConcurrency lists the in-flight job counts measured.
var serveConcurrency = []int{1, serveFleet}

// serveResolve is the bench fleet's problem resolver (placement only;
// the service benchmark measures scheduling, not workload variety).
func serveResolve(spec core.ProblemSpec) (core.Problem, error) {
	if spec.Kind != "placement" {
		return nil, fmt.Errorf("bench: unsupported job kind %q", spec.Kind)
	}
	nl, err := netlist.Benchmark(spec.Circuit)
	if err != nil {
		return nil, err
	}
	return cost.NewPlacementProblem(nl), nil
}

// Serve measures the multi-job scheduler over a loopback fleet. Each
// concurrency level (workload concurrency-N) yields serve records
// wall_seconds, jobs_per_minute and the p50, p95 and max submit-to-done
// latencies; the last level's throughput_gain is its jobs/minute over
// the first level's — what sharing the fleet across concurrent jobs
// buys.
func Serve(o Opts) (*Report, error) {
	o = o.scenario(serveCircuit, serveSeed, serveWorkScale)

	// One fleet serves every level, as a long-lived daemon would.
	var sched atomic.Pointer[serve.Scheduler]
	m, err := nettrans.Listen(nettrans.MasterConfig{
		Addr: "127.0.0.1:0",
		OnRegistry: func() {
			if s := sched.Load(); s != nil {
				s.Notify()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	s, err := serve.New(serve.Config{
		Fleet:      serve.NettransFleet{M: m},
		Resolve:    serveResolve,
		Cluster:    cluster.Testbed12(12),
		QueueDepth: serveJobs * len(serveConcurrency),
	})
	if err != nil {
		return nil, err
	}
	sched.Store(s)

	drain := make(chan struct{})
	var wg sync.WaitGroup
	workerErr := make([]error, serveFleet)
	for i := range workerErr {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErr[i] = core.ServeWorker(o.Context, nil, core.WorkerOptions{
				Addr:    m.Addr(),
				Name:    fmt.Sprintf("bench%d", i),
				Speed:   1,
				Resolve: serveResolve,
				Drain:   drain,
			}, nil)
		}(i)
	}
	rep, err := serveLevels(o, m, s)
	// Drain and join the fleet before reading its errors, so an error a
	// worker returns at drain is seen too.
	close(drain)
	wg.Wait()
	for i, werr := range workerErr {
		if werr != nil && o.Context.Err() == nil {
			err = errors.Join(err, fmt.Errorf("bench: fleet worker %d: %w", i, werr))
		}
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// serveLevels waits for the fleet to join, then measures every
// concurrency level.
func serveLevels(o Opts, m *nettrans.Master, s *serve.Scheduler) (*Report, error) {
	joinDeadline := time.Now().Add(10 * time.Second)
	for m.TotalWorkers() < serveFleet {
		if time.Now().After(joinDeadline) {
			return nil, fmt.Errorf("bench: only %d of %d fleet workers joined", m.TotalWorkers(), serveFleet)
		}
		time.Sleep(2 * time.Millisecond)
	}

	cfg := core.DefaultConfig()
	cfg.TSWs, cfg.CLWs = 1, 2
	cfg.GlobalIters, cfg.LocalIters = serveGlobalIters, o.scaled(serveLocalIters, 1)
	cfg.Seed = o.Seed
	cfg.WorkScale = o.WorkScale
	cfg.HalfSync = false
	cfg.RecordTrace = false
	req := serve.Request{
		Spec:    core.ProblemSpec{Kind: "placement", Circuit: o.Circuits[0]},
		Workers: serveWorkersPerJob,
		Cfg:     cfg,
	}

	rep := newReport("serve", "serving mode: jobs/minute and submit-to-done latency through the multi-job scheduler on a shared loopback fleet",
		map[string]any{"circuit": o.Circuits[0], "fleet_workers": serveFleet, "workers_per_job": serveWorkersPerJob,
			"jobs_per_level": serveJobs, "concurrency": serveConcurrency, "global_iters": cfg.GlobalIters,
			"local_iters": cfg.LocalIters, "work_scale": o.WorkScale, "seed": o.Seed})
	var first, last float64
	for _, conc := range serveConcurrency {
		latencies, wall, err := serveLevel(o.Context, s, req, conc)
		if err != nil {
			return nil, err
		}
		level := fmt.Sprintf("concurrency-%d", conc)
		last = float64(serveJobs) / wall * 60
		if conc == serveConcurrency[0] {
			first = last
		}
		rep.add("serve", level, "wall_seconds", wall)
		rep.add("serve", level, "jobs_per_minute", last)
		rep.add("serve", level, "p50_latency_seconds", percentile(latencies, 0.50))
		rep.add("serve", level, "p95_latency_seconds", percentile(latencies, 0.95))
		rep.add("serve", level, "max_latency_seconds", latencies[len(latencies)-1])
	}
	rep.add("serve", fmt.Sprintf("concurrency-%d", serveConcurrency[len(serveConcurrency)-1]), "throughput_gain", last/first)
	return rep, nil
}

// serveLevel pushes serveJobs identical jobs through the scheduler with
// at most conc in flight and returns the sorted submit-to-done
// latencies and the level's wall time, in seconds.
func serveLevel(ctx context.Context, s *serve.Scheduler, req serve.Request, conc int) ([]float64, float64, error) {
	latencies := make([]float64, 0, serveJobs)
	inflight := make(chan *jobTimer, conc)
	start := time.Now()
	done := 0
	submitted := 0
	for done < serveJobs {
		for submitted < serveJobs && len(inflight) < cap(inflight) {
			t0 := time.Now()
			j, err := s.Submit(req)
			if err != nil {
				return nil, 0, fmt.Errorf("bench: submit job %d at concurrency %d: %w", submitted, conc, err)
			}
			inflight <- &jobTimer{j: j, t0: t0}
			submitted++
		}
		t := <-inflight
		select {
		case <-t.j.Done():
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
		if st := t.j.Status(); st != serve.Done {
			return nil, 0, fmt.Errorf("bench: job %s ended %s (%s)", t.j.ID(), st, t.j.Err())
		}
		latencies = append(latencies, time.Since(t.t0).Seconds())
		done++
	}
	wall := time.Since(start).Seconds()
	sort.Float64s(latencies)
	return latencies, wall, nil
}

// jobTimer pairs a submitted job with its submission instant.
type jobTimer struct {
	j  *serve.Job
	t0 time.Time
}

// percentile reads the p-quantile from sorted samples by nearest rank:
// the ceil(p·n)-th smallest sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}
