package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/pvm"
)

// fakeFleet is a capacity counter standing in for a nettrans master.
type fakeFleet struct {
	mu     sync.Mutex
	total  int
	free   int
	notify func() // wired to Scheduler.Notify after construction
}

func newFakeFleet(workers int) *fakeFleet {
	return &fakeFleet{total: workers, free: workers}
}

func (f *fakeFleet) Lease(n int) (Lease, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n > f.free {
		return nil, fmt.Errorf("%w: %d idle, %d requested", ErrNoCapacity, f.free, n)
	}
	f.free -= n
	return &fakeLease{f: f, n: n}, nil
}

func (f *fakeFleet) FreeWorkers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.free
}

func (f *fakeFleet) TotalWorkers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

func (f *fakeFleet) Nodes() []NodeInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]NodeInfo, f.total)
	for i := range out {
		out[i] = NodeInfo{Name: fmt.Sprintf("w%d", i), Speed: 1, Capacity: 1, Busy: i >= f.free}
	}
	return out
}

type fakeLease struct {
	f        *fakeFleet
	n        int
	mu       sync.Mutex
	released bool
}

func (l *fakeLease) Run(opts pvm.Options, root pvm.TaskFunc) (float64, error) {
	// Delegate to the in-process transport: a genuine run of the full
	// task tree, just without remote processes.
	opts.Transport = nil
	return pvm.InProcess().Run(opts, root)
}

func (l *fakeLease) Finish(summary any) error {
	l.Release()
	return nil
}

func (l *fakeLease) Workers() []string {
	names := make([]string, l.n)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	return names
}

func (l *fakeLease) Release() {
	l.mu.Lock()
	if l.released {
		l.mu.Unlock()
		return
	}
	l.released = true
	l.mu.Unlock()
	l.f.mu.Lock()
	l.f.free += l.n
	notify := l.f.notify
	l.f.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// testResolve resolves placement specs over the built-in benchmark
// circuits, the facade resolver's internal twin.
func testResolve(spec core.ProblemSpec) (core.Problem, error) {
	if spec.Kind != "placement" {
		return nil, fmt.Errorf("test resolver: unsupported kind %q", spec.Kind)
	}
	nl, err := netlist.Benchmark(spec.Circuit)
	if err != nil {
		return nil, err
	}
	return cost.NewPlacementProblem(nl), nil
}

// tinyCfg is a fast static configuration for scheduler tests.
func tinyCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.TSWs = 1
	cfg.CLWs = 1
	cfg.GlobalIters = 2
	cfg.LocalIters = 2
	cfg.HalfSync = false
	cfg.WorkPerTrial = 0
	cfg.RecordTrace = false
	return cfg
}

// newTestScheduler assembles a scheduler over a fake fleet with the
// runner stubbed out by runJob (nil keeps the real solver).
func newTestScheduler(t *testing.T, fleet *fakeFleet, queueDepth int, runJob func(ctx context.Context, j *Job, lease Lease) (*core.Result, error)) *Scheduler {
	t.Helper()
	s, err := New(Config{
		Fleet:      fleet,
		Resolve:    testResolve,
		Cluster:    cluster.Homogeneous(4, 1),
		QueueDepth: queueDepth,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	drainOnCleanup(t, s)
	fleet.mu.Lock()
	fleet.notify = s.Notify
	fleet.mu.Unlock()
	if runJob != nil {
		s.runJob = runJob
	}
	return s
}

// drain shuts s down and waits for every runner goroutine. A runner
// publishes its job's terminal status before it journals the job, logs
// the outcome and pumps the queue, so a waiter released by the status
// can run ahead of all three.
func drain(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// drainOnCleanup drains s before the test ends, so no runner logs
// through t.Logf once the test has finished.
func drainOnCleanup(t *testing.T, s *Scheduler) {
	t.Cleanup(func() { drain(t, s) })
}

func submitReq(workers int) Request {
	return Request{
		Spec:    core.ProblemSpec{Kind: "placement", Circuit: "highway"},
		Workers: workers,
		Cfg:     tinyCfg(),
	}
}

func waitStatus(t *testing.T, j *Job, want Status) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if st := j.Status(); st == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %s stuck in %s, want %s", j.ID(), j.Status(), want)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// blockingRunner returns a stub runner that reports each started job id
// on started and holds it until the returned step function is called
// (or the job's context fires).
func blockingRunner(started chan<- string) (runner func(ctx context.Context, j *Job, lease Lease) (*core.Result, error), step func()) {
	proceed := make(chan struct{})
	runner = func(ctx context.Context, j *Job, lease Lease) (*core.Result, error) {
		started <- j.ID()
		select {
		case <-proceed:
			return &core.Result{Problem: "fake", Rounds: 1}, nil
		case <-ctx.Done():
			return &core.Result{Problem: "fake", Interrupted: true}, nil
		}
	}
	return runner, func() { proceed <- struct{}{} }
}

func TestSubmitQueueFullRejection(t *testing.T) {
	fleet := newFakeFleet(1)
	started := make(chan string, 16)
	runner, step := blockingRunner(started)
	s := newTestScheduler(t, fleet, 2, runner)

	// First job occupies the single worker; two more fill the queue.
	j1, err := s.Submit(submitReq(1))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(submitReq(1)); err != nil {
			t.Fatalf("submit queued %d: %v", i, err)
		}
	}
	if _, err := s.Submit(submitReq(1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	// Drain the pipeline: each step finishes the running job, admitting
	// the next queued one.
	step() // finishes j1
	<-started
	step() // finishes the second job
	<-started
	step() // finishes the third
	waitStatus(t, j1, Done)
	if got := s.Queued(); got != 0 {
		t.Fatalf("queue length %d after drain-through, want 0", got)
	}
	j4, err := s.Submit(submitReq(1))
	if err != nil {
		t.Fatalf("submit after queue drained: %v", err)
	}
	<-started
	if err := s.Cancel(j4.ID()); err != nil {
		t.Fatalf("cancel tail job: %v", err)
	}
	waitStatus(t, j4, Cancelled)
}

func TestSubmitAdmissionRefusal(t *testing.T) {
	fleet := newFakeFleet(2)
	s := newTestScheduler(t, fleet, 4, nil)
	if _, err := s.Submit(submitReq(3)); !errors.Is(err, ErrNeverAdmissible) {
		t.Fatalf("submit 3 of 2: err = %v, want ErrNeverAdmissible", err)
	}
	if _, err := s.Submit(submitReq(-1)); err == nil {
		t.Fatal("negative workers accepted")
	}
	// A bad search config is refused at submission.
	req := submitReq(1)
	req.Cfg.GlobalIters = 0
	if _, err := s.Submit(req); err == nil {
		t.Fatal("invalid config accepted")
	}
	// An unknown circuit is refused at submission.
	req = submitReq(1)
	req.Spec.Circuit = "no-such-circuit"
	if _, err := s.Submit(req); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}

func TestFIFOFairnessConcurrentSubmitters(t *testing.T) {
	fleet := newFakeFleet(1)
	started := make(chan string, 32)
	runner, step := blockingRunner(started)
	s := newTestScheduler(t, fleet, 32, runner)

	// Occupy the worker so every concurrent submission queues.
	if _, err := s.Submit(submitReq(1)); err != nil {
		t.Fatalf("submit head: %v", err)
	}
	first := <-started

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(submitReq(1)); err != nil {
				t.Errorf("concurrent submit: %v", err)
			}
		}()
	}
	wg.Wait()

	// Submission order is the id-assignment order under the scheduler's
	// lock; jobs must start in exactly that order.
	var wantOrder []string
	for _, v := range s.Jobs() {
		if v.ID != first {
			wantOrder = append(wantOrder, v.ID)
		}
	}
	var gotOrder []string
	for i := 0; i < n; i++ {
		step() // finish the currently running job, admitting the next
		gotOrder = append(gotOrder, <-started)
	}
	step() // finish the last one
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("start order %v, want submission order %v", gotOrder, wantOrder)
		}
	}
}

func TestCancelQueuedAndRunningReleasesSlots(t *testing.T) {
	fleet := newFakeFleet(2)
	started := make(chan string, 8)
	runner, _ := blockingRunner(started)
	s := newTestScheduler(t, fleet, 8, runner)

	running, err := s.Submit(submitReq(2))
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	<-started
	queued, err := s.Submit(submitReq(1))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	// Cancelling the queued job removes it without touching capacity.
	if err := s.Cancel(queued.ID()); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	waitStatus(t, queued, Cancelled)
	if got := s.Queued(); got != 0 {
		t.Fatalf("queue length %d after cancel, want 0", got)
	}

	// Cancelling the running job interrupts it and frees both slots.
	if err := s.Cancel(running.ID()); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitStatus(t, running, Cancelled)
	if running.Result() == nil || !running.Result().Interrupted {
		t.Fatalf("cancelled job result = %+v, want interrupted best-so-far", running.Result())
	}
	if free := fleet.FreeWorkers(); free != 2 {
		t.Fatalf("fleet free = %d after cancel, want 2 (leaked lease)", free)
	}

	// Cancelling a terminal job is refused.
	if err := s.Cancel(running.ID()); !errors.Is(err, ErrTerminal) {
		t.Fatalf("re-cancel: err = %v, want ErrTerminal", err)
	}
}

func TestFailureReleasesSlots(t *testing.T) {
	fleet := newFakeFleet(2)
	boom := errors.New("searcher exploded")
	s := newTestScheduler(t, fleet, 8, func(ctx context.Context, j *Job, lease Lease) (*core.Result, error) {
		return nil, boom
	})
	j, err := s.Submit(submitReq(2))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitStatus(t, j, Failed)
	if j.Err() == "" {
		t.Fatal("failed job has no error message")
	}
	if free := fleet.FreeWorkers(); free != 2 {
		t.Fatalf("fleet free = %d after failure, want 2 (leaked lease)", free)
	}
	// The freed capacity must admit a subsequent job.
	s.runJob = func(ctx context.Context, j *Job, lease Lease) (*core.Result, error) {
		return &core.Result{Problem: "fake"}, nil
	}
	j2, err := s.Submit(submitReq(2))
	if err != nil {
		t.Fatalf("submit after failure: %v", err)
	}
	waitStatus(t, j2, Done)
}

func TestDrainCancelsQueuedAndRunning(t *testing.T) {
	fleet := newFakeFleet(1)
	started := make(chan string, 8)
	runner, _ := blockingRunner(started)
	s := newTestScheduler(t, fleet, 8, runner)

	running, err := s.Submit(submitReq(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	queued, err := s.Submit(submitReq(1))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitStatus(t, queued, Cancelled)
	waitStatus(t, running, Cancelled)
	if _, err := s.Submit(submitReq(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
}

// TestSchedulerRealRunOverFakeLease exercises the production runner
// end to end over the in-process transport: a real tabu search run with
// one progress event per global iteration.
func TestSchedulerRealRunOverFakeLease(t *testing.T) {
	fleet := newFakeFleet(2)
	s := newTestScheduler(t, fleet, 4, nil)
	req := submitReq(2)
	req.Cfg.GlobalIters = 3
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitStatus(t, j, Done)
	res := j.Result()
	if res == nil || res.Problem != "highway" || res.Rounds != 3 {
		t.Fatalf("result = %+v, want 3 completed rounds on highway", res)
	}
	evs, terminal, _ := j.EventsSince(0)
	if !terminal {
		t.Fatal("event log not terminal after Done")
	}
	var progress int
	for _, e := range evs {
		if e.Kind == "progress" {
			progress++
		}
	}
	if progress != 3 {
		t.Fatalf("progress events = %d, want one per global iteration (3); log: %+v", progress, evs)
	}
	if evs[0].Kind != "queued" || evs[len(evs)-1].Kind != "done" {
		t.Fatalf("event log endpoints = %s..%s, want queued..done", evs[0].Kind, evs[len(evs)-1].Kind)
	}
}
