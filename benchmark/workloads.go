package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"pts"
	"pts/internal/core"
)

// Every workload runs the paper's default search parameters (m=12
// trials, depth d=4) for 10 global rounds of 60 local iterations.
const (
	globalIters = 10
	localIters  = 60

	// ta001Optimum is the published optimal makespan: no correct solve
	// can report less. The job shop gate uses the load lower bound
	// instead of ft10's published 930: the embedded ft10 data differs
	// from the published instance in its last job, and solves reach
	// makespan 925 on it.
	ta001Optimum = 1278

	// placementRescoreTol bounds how far a placement run's reported best
	// cost may sit from an exact rescoring of its best permutation: the
	// run scores with timing criticalities refreshed only every few
	// dozen moves, the rescoring with a fresh analysis. Observed gaps
	// stay below 0.3%.
	placementRescoreTol = 0.01
)

// workload is one benchmark input set: what each op runs and how the
// load is shaped.
type workload struct {
	name string
	// mod names the state module whose decorated states the traced run
	// counts (cost = placement evaluator, jobshop, flowshop).
	mod string
	// clients is the number of closed-loop load goroutines.
	clients int
	// seeds is the length of the seed list a run cycles through. Each
	// seed's result is deterministic, so best_cost_mean is the mean over
	// this list; it is sized so a 25-second run covers the list and the
	// list's mean varies across seeds by well under the metric's bound.
	seeds int
	// tailPct is the latency percentile reported as lat_tail_ms: the
	// highest with at least ten ops beyond it in a 25-second run even
	// while the calibration kernel runs 1.8 times slower than at the
	// reference speed (the slowest seen was 1.6), so every run reports
	// the same percentile. jobshop-ft10 uses p90: in some runs
	// 5–20% of its solves take about 1.5 times the CPU and wall time of
	// the rest, with no sign of it on the host, so any higher percentile
	// jumps between the two modes from run to run.
	tailPct float64
	// reproducible says a seed's result never depends on timing, so a
	// seed that comes round again must reproduce it bit for bit. Real-
	// time solves with two or more TSWs or CLWs are not: the master and
	// the TSW keep the first-arrived of equal-cost reports and
	// candidates, so ties follow arrival order.
	reproducible bool
	// clws is the candidate-list width the TSW selects from, the
	// candidate count the tabu.select micro-benchmark uses.
	clws int
	// calibExp models how much harder the host's slow phases hit this
	// workload than the calibration kernel (see calib.go). Fitted on
	// per-op latencies of ten to sixty runs of each workload on the
	// 2-CPU host: the exponent that minimised the run-to-run spread was
	// about 1.25 for the workloads that keep one core busy and 1.5 for
	// those that keep both busy, for the kernel's slowdown and for steal
	// time alike.
	calibExp float64
	// build constructs the workload's problem: the setup of a solve
	// workload, and the micro-benchmarks' state factory.
	build func() (pts.Problem, error)

	// A solve workload's op is one pts.Solve of the built problem with
	// these options and the op's seed, checked by checkSolve with
	// rescoring tolerance tol and then by check, when set.
	solve []pts.Option
	tol   float64
	check func(*pts.Result) error

	// open, when set, replaces the solve stack: it sets up everything an
	// op needs, and its duration is setup_s. prepare, when set, computes
	// per-seed reference results once per run, before set-up.
	open    func(ctx context.Context, env openEnv) (*stack, error)
	prepare func(ctx context.Context, seeds []uint64, tr *tracer) (map[uint64]refResult, error)
}

// openEnv is what a stack is opened with.
type openEnv struct {
	dir  string // scratch directory the stack may write under
	tr   *tracer
	refs map[uint64]refResult
}

// stack is an opened workload: the op a client runs and the teardown.
type stack struct {
	op    func(ctx context.Context, client int, seed uint64, opID int64) (opOut, error)
	close func() error
}

// opOut is one op's measured interval and verified outcome.
type opOut struct {
	start, end time.Time
	cost       float64
	hash       uint64 // of the best permutation
	msgs       int64
	trials     int64
	serve      *serveTimes
}

// serveTimes splits one serving-mode job into its stages.
type serveTimes struct {
	submit, queue, run, tail time.Duration
}

// refResult is an in-process reference solve of one seed.
type refResult struct {
	cost float64
	hash uint64
	wall time.Duration
}

func buildC532() (pts.Problem, error)  { return pts.PlacementBenchmark("c532") }
func buildFT10() (pts.Problem, error)  { return pts.JobShopBenchmark("ft10") }
func buildTa001() (pts.Problem, error) { return pts.FlowShopBenchmark("ta001") }

// serveClients is the serving workload's closed-loop client count.
const serveClients = 2

var workloads = []*workload{
	{
		name: "place-c532", mod: "cost", clients: 1, seeds: 512, tailPct: 98, clws: 2, calibExp: 1.25,
		build: buildC532, tol: placementRescoreTol,
		solve: []pts.Option{pts.WithRealTime(), pts.WithWorkers(1, 2), pts.WithHalfSync(false)},
	},
	{
		name: "jobshop-ft10", mod: "jobshop", clients: 1, seeds: 256, tailPct: 90, clws: 1, calibExp: 1.5,
		build: buildFT10, check: checkFT10,
		solve: []pts.Option{pts.WithRealTime(), pts.WithWorkers(2, 1), pts.WithHalfSync(false)},
	},
	{
		name: "virtual-c532", mod: "cost", clients: 1, seeds: 256, tailPct: 95, clws: 1, calibExp: 1.25, reproducible: true,
		build: buildC532, tol: placementRescoreTol,
		solve: []pts.Option{pts.WithVirtualTime(), pts.WithCluster(pts.Testbed12(12)), pts.WithWorkers(4, 1), pts.WithHalfSync(true)},
	},
	{
		name: "serve-ta001", mod: "flowshop", clients: serveClients, seeds: 16, tailPct: 95, clws: 1, calibExp: 1.5, reproducible: true,
		build: buildTa001, open: openServe, prepare: serveReferences,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// openStack sets up the workload's stack: open, or for a solve
// workload the problem build.
func (w *workload) openStack(ctx context.Context, env openEnv) (*stack, error) {
	if w.open != nil {
		return w.open(ctx, env)
	}
	return openSolve(w, env)
}

// openSolve builds a solve workload's problem; each op solves it for
// one seed and verifies the result.
func openSolve(w *workload, env openEnv) (*stack, error) {
	p, err := w.build()
	if err != nil {
		return nil, err
	}
	base := append([]pts.Option{pts.WithIterations(globalIters, localIters), pts.WithTrace(false)}, w.solve...)
	op := func(ctx context.Context, _ int, seed uint64, opID int64) (opOut, error) {
		o := append(base[:len(base):len(base)], pts.WithSeed(seed))
		prob := pts.Problem(p)
		var tp *tracedProblem
		var cpu0 time.Duration
		if tr := env.tr; tr != nil {
			tp = &tracedProblem{Problem: p, mod: w.mod, op: opID, tr: tr}
			prob = tp
			prev := tr.now()
			o = append(o, pts.WithProgress(func(pts.Snapshot) {
				now := tr.now()
				tr.add(span{Op: opID, Name: "core.round", Start: prev, End: now})
				prev = now
			}))
			cpu0 = processCPU()
		}
		start := time.Now()
		r, err := pts.Solve(ctx, prob, o...)
		end := time.Now()
		if tp != nil {
			tp.fold(processCPU() - cpu0)
		}
		if err != nil {
			return opOut{}, err
		}
		out := opOut{start: start, end: end, cost: r.BestCost, hash: permHash(r.Best),
			msgs: r.Messages, trials: r.Stats.TrialsCharged}
		if err := checkSolve(p, r, w.tol); err != nil {
			return out, err
		}
		if w.check != nil {
			return out, w.check(r)
		}
		return out, nil
	}
	return &stack{op: op, close: func() error { return nil }}, nil
}

// checkSolve applies the gates every solve must pass.
func checkSolve(p pts.Problem, r *pts.Result, tol float64) error {
	switch {
	case r.Interrupted:
		return errors.New("solve interrupted")
	case r.Rounds != globalIters:
		return fmt.Errorf("solve ran %d rounds, want %d", r.Rounds, globalIters)
	case r.BestCost > r.InitialCost:
		return fmt.Errorf("best cost %v exceeds initial cost %v", r.BestCost, r.InitialCost)
	}
	if err := checkPerm(r.Best, int(p.Size())); err != nil {
		return err
	}
	st, err := p.NewState(r.Best)
	if err != nil {
		return fmt.Errorf("rebuild best solution: %w", err)
	}
	if c := st.Cost(); math.Abs(c-r.BestCost) > tol*math.Abs(r.BestCost) {
		return fmt.Errorf("best solution rescores to %v, solve reported %v", c, r.BestCost)
	}
	return nil
}

// checkFT10 holds a job shop result to an exact re-decode and to the
// instance's load lower bound.
func checkFT10(r *pts.Result) error {
	d, ok := r.Details.(pts.JobShopDetails)
	if !ok {
		return fmt.Errorf("job shop details missing (got %T)", r.Details)
	}
	if float64(d.Makespan) != r.BestCost {
		return fmt.Errorf("decoded makespan %d differs from best cost %v", d.Makespan, r.BestCost)
	}
	if d.Makespan < d.LowerBound {
		return fmt.Errorf("makespan %d below the instance's load lower bound %d", d.Makespan, d.LowerBound)
	}
	return nil
}

// checkPerm checks that perm has n distinct non-negative entries.
// Placement solutions map each cell to a slot index and the grid has
// more slots than cells, so entries may reach past n; rebuilding the
// state from the solution checks their range.
func checkPerm(perm []int32, n int) error {
	if len(perm) != n {
		return fmt.Errorf("best solution has %d elements, want %d", len(perm), n)
	}
	seen := make(map[int32]bool, n)
	for _, v := range perm {
		if v < 0 || seen[v] {
			return fmt.Errorf("best solution is not a permutation (entry %d)", v)
		}
		seen[v] = true
	}
	return nil
}

func permHash(perm []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range perm {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// serveOpts are the reference solve's options for one seed: the same
// search a serving-mode job runs, durable like the daemon's jobs.
func serveOpts(seed uint64) []pts.Option {
	return []pts.Option{
		pts.WithRealTime(), pts.WithWorkers(1, 1), pts.WithIterations(globalIters, localIters),
		pts.WithHalfSync(false), pts.WithSeed(seed), pts.WithStore(pts.NewMemStore()),
	}
}

// serveReferences solves every seed in process, once, for the serving
// workload's bit-equality gate and its distribution-overhead metric.
// A traced call decorates the flow shop states.
func serveReferences(ctx context.Context, seeds []uint64, tr *tracer) (map[uint64]refResult, error) {
	p, err := buildTa001()
	if err != nil {
		return nil, err
	}
	refs := make(map[uint64]refResult, len(seeds))
	for _, seed := range seeds {
		if _, ok := refs[seed]; ok {
			continue
		}
		prob := pts.Problem(p)
		var tp *tracedProblem
		var cpu0 time.Duration
		if tr != nil {
			tp = &tracedProblem{Problem: p, mod: "flowshop", op: tr.newID(), tr: tr}
			prob = tp
			cpu0 = processCPU()
		}
		start := time.Now()
		r, err := pts.Solve(ctx, prob, serveOpts(seed)...)
		wall := time.Since(start)
		if tp != nil {
			tp.fold(processCPU() - cpu0)
			tr.add(span{ID: tp.op, Op: tp.op, Name: "reference", Start: tr.at(start), End: tr.at(start.Add(wall))})
		}
		if err != nil {
			return nil, fmt.Errorf("reference solve of seed %d: %w", seed, err)
		}
		if err := checkSolve(p, r, 0); err != nil {
			return nil, fmt.Errorf("reference solve of seed %d: %w", seed, err)
		}
		if r.BestCost < ta001Optimum {
			return nil, fmt.Errorf("reference solve of seed %d: makespan %v below the proven optimum %d", seed, r.BestCost, ta001Optimum)
		}
		refs[seed] = refResult{cost: r.BestCost, hash: permHash(r.Best), wall: wall}
	}
	return refs, nil
}

// serveStack is the serving workload's opened stack: a daemon with a
// file store on a fresh directory, its HTTP API on loopback, two
// in-process fleet workers, and one HTTP client per load goroutine.
type serveStack struct {
	env     openEnv
	base    string
	srv     *pts.Server
	hs      *http.Server
	served  chan error
	drain   chan struct{}
	fleet   sync.WaitGroup
	fleetMu sync.Mutex
	fleetEr []error
	clients []*http.Client
	dir     string
}

const fleetWorkers = 2

func openServe(ctx context.Context, env openEnv) (*stack, error) {
	s := &serveStack{env: env, served: make(chan error, 1), drain: make(chan struct{})}
	dir, err := os.MkdirTemp(env.dir, "store-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	fst, err := pts.NewFileStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	st := fst
	if env.tr != nil {
		st = &tracedStore{Store: fst, tr: env.tr}
	}
	s.srv, err = pts.ListenServer(pts.ServerOptions{Store: st})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := 0; i < fleetWorkers; i++ {
		s.fleet.Add(1)
		go func(i int) {
			defer s.fleet.Done()
			err := pts.Worker(ctx, nil, s.srv.FleetAddr(),
				pts.NodeOptions{Name: fmt.Sprintf("fleet%d", i), Drain: s.drain}, 0, nil)
			if err != nil {
				s.fleetMu.Lock()
				s.fleetEr = append(s.fleetEr, err)
				s.fleetMu.Unlock()
			}
		}(i)
	}
	for i := 0; i < serveClients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}})
	}
	// The join takes about a millisecond; poll finely so setup_s
	// measures it rather than the polling interval.
	deadline := time.Now().Add(10 * time.Second)
	for len(s.srv.Workers()) < fleetWorkers {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("only %d of %d fleet workers joined", len(s.srv.Workers()), fleetWorkers)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return &stack{op: s.op, close: s.close}, nil
}

// close stops the HTTP server, drains the fleet workers, closes the
// daemon and removes the store directory.
func (s *serveStack) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	herr := s.hs.Close()
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	close(s.drain)
	s.fleet.Wait()
	cerr := s.srv.Close()
	rerr := os.RemoveAll(s.dir)
	return errors.Join(herr, cerr, rerr, errors.Join(s.fleetEr...))
}

// op submits one job over HTTP, follows its event stream until it
// closes, then fetches the job and checks it against the reference.
func (s *serveStack) op(ctx context.Context, client int, seed uint64, opID int64) (opOut, error) {
	hc := s.clients[client]
	tr := s.env.tr
	body := fmt.Sprintf(`{"problem":{"kind":"flowshop","instance":"ta001"},"workers":1,`+
		`"config":{"tsws":1,"clws":1,"global_iters":%d,"local_iters":%d,"half_sync":false,"seed":%d}}`,
		globalIters, localIters, seed)

	start := time.Now()
	var created struct {
		ID string `json:"id"`
	}
	if err := s.call(ctx, hc, opID, http.MethodPost, "/v1/jobs", body, http.StatusCreated, &created); err != nil {
		return opOut{}, err
	}
	posted := time.Now()
	if tr != nil {
		tr.bindJob(created.ID, opID)
	}
	if err := s.follow(ctx, hc, created.ID, opID); err != nil {
		return opOut{}, err
	}
	end := time.Now()

	var view struct {
		Status   string       `json:"status"`
		Error    string       `json:"error"`
		Created  time.Time    `json:"created"`
		Started  *time.Time   `json:"started"`
		Finished *time.Time   `json:"finished"`
		Result   *core.Result `json:"result"`
	}
	if err := s.call(ctx, hc, opID, http.MethodGet, "/v1/jobs/"+created.ID, "", http.StatusOK, &view); err != nil {
		return opOut{}, err
	}
	if view.Status != "done" || view.Result == nil || view.Started == nil || view.Finished == nil {
		return opOut{}, fmt.Errorf("job %s ended %q (%s)", created.ID, view.Status, view.Error)
	}
	r := view.Result
	out := opOut{start: start, end: end, cost: r.BestCost, hash: permHash(r.BestPerm),
		msgs: r.Runtime.Sends, trials: r.Stats.TrialsCharged,
		serve: &serveTimes{
			submit: posted.Sub(start),
			queue:  view.Started.Sub(view.Created),
			run:    view.Finished.Sub(*view.Started),
			tail:   end.Sub(*view.Finished),
		}}
	ref, ok := s.env.refs[seed]
	switch {
	case !ok:
		return out, fmt.Errorf("no reference solve for seed %d", seed)
	case r.Interrupted || r.Rounds != globalIters:
		return out, fmt.Errorf("job %s: interrupted=%v after %d rounds", created.ID, r.Interrupted, r.Rounds)
	case r.BestCost < ta001Optimum:
		return out, fmt.Errorf("job %s: makespan %v below the proven optimum %d", created.ID, r.BestCost, ta001Optimum)
	case r.BestCost != ref.cost || out.hash != ref.hash:
		return out, fmt.Errorf("job %s (seed %d): makespan %v differs from the in-process solve's %v or its permutation does",
			created.ID, seed, r.BestCost, ref.cost)
	}
	return out, nil
}

// call performs one JSON request and decodes the response into v.
func (s *serveStack) call(ctx context.Context, hc *http.Client, opID int64, method, path, body string, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	tr := s.env.tr
	var start int64
	if tr != nil {
		start = tr.now()
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr != nil {
		name := "http.POST /v1/jobs"
		if method == http.MethodGet {
			name = "http.GET /v1/jobs/{id}"
		}
		tr.add(span{Op: opID, Name: name, Start: start, End: tr.now()})
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// follow reads the job's event stream until the daemon closes it,
// recording one round span per progress event when tracing.
func (s *serveStack) follow(ctx context.Context, hc *http.Client, id string, opID int64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	tr := s.env.tr
	var start int64
	if tr != nil {
		start = tr.now()
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("events of job %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of job %s: status %d", id, resp.StatusCode)
	}
	prev := start
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if tr == nil {
			continue
		}
		switch sc.Text() {
		case "event: running":
			prev = tr.now()
		case "event: progress":
			now := tr.now()
			tr.add(span{Op: opID, Name: "core.round", Start: prev, End: now})
			prev = now
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events of job %s: %w", id, err)
	}
	if tr != nil {
		tr.add(span{Op: opID, Name: "http.GET /v1/jobs/{id}/events", Start: start, End: tr.now()})
	}
	return nil
}
