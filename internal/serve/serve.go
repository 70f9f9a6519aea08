// Package serve turns the solver into a long-lived service: one
// Scheduler owns one distributed worker fleet and multiplexes many
// concurrent solver runs over it.
//
// Jobs are submitted as a ProblemSpec (the named built-in workload),
// a worker count, and a search Config; they wait in a bounded strict-
// FIFO queue until the fleet has enough idle workers, then run on a
// per-job lease of concrete worker processes — no worker ever hosts
// tasks of two jobs at once, so the isolation and resilience machinery
// of a single run (loss tolerance, respawn, checkpoints) applies per
// job unchanged. Progress streams as an append-only per-job event log
// (one event per completed global iteration plus lifecycle markers),
// which the HTTP front door (http.go) exposes as server-sent events.
//
// The package is transport-agnostic behind the Fleet interface;
// NettransFleet adapts a nettrans.Master, and tests substitute fakes.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/pvm"
	"pts/internal/store"
)

// Fleet is the scheduler's view of its worker pool: how many worker
// processes exist, how many are idle, and the ability to claim some of
// them exclusively for one job.
type Fleet interface {
	// Lease claims n idle workers FIFO by join order, without blocking.
	// It returns an error satisfying errors.Is(err, ErrNoCapacity) when
	// fewer than n workers are idle right now.
	Lease(n int) (Lease, error)
	// FreeWorkers is the number of currently idle workers.
	FreeWorkers() int
	// TotalWorkers is the number of registered workers, idle or leased.
	TotalWorkers() int
	// Nodes describes every registered worker.
	Nodes() []NodeInfo
}

// Lease is one job's exclusive claim on a set of workers: a transport
// hosting exactly one run over them, plus the finisher that delivers
// the result and returns the survivors to the fleet.
type Lease interface {
	pvm.Transport
	pvm.Finisher
	// Workers names the claimed worker processes.
	Workers() []string
	// Release returns the lease's surviving workers to the fleet without
	// delivering a result; it is idempotent and safe after Finish.
	Release()
}

// NodeInfo describes one fleet worker.
type NodeInfo struct {
	Name     string  `json:"name"`
	Speed    float64 `json:"speed"`
	Capacity int     `json:"capacity"`
	Busy     bool    `json:"busy"`
}

// ErrNoCapacity reports a Lease call that found fewer idle workers
// than requested. Fleet implementations wrap it (or nettrans's
// equivalent sentinel, which NettransFleet translates).
var ErrNoCapacity = errors.New("serve: not enough idle workers")

// Submission errors, distinguished so the HTTP layer can map them to
// status codes.
var (
	// ErrQueueFull rejects a submission when the bounded job queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrNeverAdmissible rejects a job that wants more workers than the
	// fleet has at all — it could wait forever (HTTP 409).
	ErrNeverAdmissible = errors.New("serve: job wants more workers than the fleet has")
	// ErrDraining rejects submissions while the scheduler shuts down
	// (HTTP 503).
	ErrDraining = errors.New("serve: scheduler is draining")
	// ErrTerminal reports a cancel of a job that already finished.
	ErrTerminal = errors.New("serve: job already terminal")
)

// Config parameterizes a Scheduler.
type Config struct {
	// Fleet is the worker pool all jobs share. Required.
	Fleet Fleet
	// Resolve constructs a job's Problem from its spec — the same
	// resolver shape worker daemons use (core.WorkerOptions.Resolve), so
	// master and workers agree on the workload. Required.
	Resolve func(core.ProblemSpec) (core.Problem, error)
	// Cluster is the machine model every run executes against (message
	// latencies; speeds for virtual work emulation). Required.
	Cluster cluster.Cluster
	// QueueDepth bounds how many jobs may wait behind the running ones;
	// 0 means DefaultQueueDepth.
	QueueDepth int
	// Store, when non-nil, makes the scheduler crash-only: every job's
	// spec and lifecycle state is journaled under "jobs/<id>", each run
	// persists its master snapshots under "runs/<id>" in the same store,
	// and a restarted scheduler (New over the same store) re-admits
	// queued and mid-run jobs and still serves terminal results. It also
	// keeps the daemon's memory flat in the number of finished jobs: a
	// job whose terminal record (result and event log included) is in
	// the journal leaves memory, and Get rebuilds it from there. Nil
	// keeps everything in memory — a restart forgets all jobs.
	Store store.Store
	// Logf, when non-nil, receives scheduler lifecycle lines.
	Logf func(format string, args ...any)
}

// DefaultQueueDepth bounds the job queue when Config.QueueDepth is 0.
const DefaultQueueDepth = 16

// Request describes one job submission.
type Request struct {
	// Spec names the built-in workload; the scheduler resolves it at
	// submit time and embeds it in the job payload so resolver-equipped
	// workers rebuild it on their side.
	Spec core.ProblemSpec
	// Workers is how many fleet workers the job leases for its run; 0
	// runs every task in the daemon process (still a real run, just
	// without remote capacity).
	Workers int
	// Cfg is the search configuration. Transport, ProblemSpec and
	// Progress are owned by the scheduler and overwritten.
	Cfg core.Config
}

// Status is a job's lifecycle state.
type Status int

const (
	// Queued jobs wait for fleet capacity in strict submission order.
	Queued Status = iota
	// Running jobs hold a lease and are executing.
	Running
	// Done jobs completed their full iteration budget.
	Done
	// Failed jobs hit an error or lost their run mid-flight; a partial
	// best-so-far result may still be attached.
	Failed
	// Cancelled jobs were stopped by request (or daemon drain), with the
	// best-so-far result attached when they had started.
	Cancelled
)

// String returns the lowercase wire name of the status.
func (s Status) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Terminal reports whether the status is final.
func (s Status) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Event is one entry of a job's append-only event log: a lifecycle
// transition or a per-global-iteration progress report.
type Event struct {
	// Seq is the event's 0-based position in the job's log.
	Seq int `json:"seq"`
	// Kind is "queued", "running", "progress", "done", "failed" or
	// "cancelled".
	Kind string `json:"kind"`
	// Snapshot is the round's progress report; non-nil only for
	// "progress" events.
	Snapshot *core.Snapshot `json:"snapshot,omitempty"`
	// Error is the failure message on "failed" events.
	Error string `json:"error,omitempty"`
}

// Job is one submitted run. All accessors are safe for concurrent use.
type Job struct {
	id   string
	req  Request
	prob core.Problem

	ctx    context.Context
	cancel context.CancelFunc

	// journalMu orders the job's journal writes: a record is captured
	// and Put under it, so the last write always carries the newest
	// state.
	journalMu sync.Mutex

	mu        sync.Mutex
	status    Status
	cancelReq bool
	errMsg    string
	result    *core.Result
	created   time.Time
	started   time.Time
	finished  time.Time
	events    []Event
	changed   chan struct{} // closed and replaced on every event append
	done      chan struct{} // closed on terminal transition
}

// ID returns the job's scheduler-unique identifier.
func (j *Job) ID() string { return j.id }

// Request returns the submission as accepted.
func (j *Job) Request() Request { return j.req }

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the failure message of a Failed job ("" otherwise).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// Result returns the job's run result: the full outcome of a Done job,
// the best-so-far of a Cancelled or aborted one, nil while the job has
// not produced one.
func (j *Job) Result() *core.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Done returns a channel closed when the job reaches a terminal
// status.
func (j *Job) Done() <-chan struct{} { return j.done }

// EventsSince returns the events with Seq >= after, whether the log is
// complete (a terminal event has been appended), and a channel closed
// on the next append — the wait handle for streaming consumers.
func (j *Job) EventsSince(after int) (evs []Event, terminal bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if after < 0 {
		after = 0
	}
	if after < len(j.events) {
		evs = append(evs, j.events[after:]...)
	}
	return evs, j.status.Terminal(), j.changed
}

// append records an event; callers hold j.mu.
func (j *Job) append(kind string, snap *core.Snapshot, errMsg string) {
	j.events = append(j.events, Event{Seq: len(j.events), Kind: kind, Snapshot: snap, Error: errMsg})
	close(j.changed)
	j.changed = make(chan struct{})
}

// progress is the run's Progress callback: it records one event per
// completed global iteration. It runs on the master task's thread, so
// it only appends and returns.
func (j *Job) progress(cs core.Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.append("progress", &cs, "")
}

// finish moves the job to a terminal status exactly once.
func (j *Job) finish(status Status, res *core.Result, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.status = status
	j.result = res
	j.errMsg = errMsg
	j.finished = time.Now()
	j.append(status.String(), nil, errMsg)
	close(j.done)
}

// View is a point-in-time copy of a job's externally visible state.
type View struct {
	ID       string           `json:"id"`
	Spec     core.ProblemSpec `json:"problem"`
	Workers  int              `json:"workers"`
	Status   string           `json:"status"`
	Error    string           `json:"error,omitempty"`
	Created  time.Time        `json:"created"`
	Started  *time.Time       `json:"started,omitempty"`
	Finished *time.Time       `json:"finished,omitempty"`
	Events   int              `json:"events"`
	Result   *core.Result     `json:"result,omitempty"`
}

// View snapshots the job. withResult attaches the (potentially large)
// run result; list endpoints leave it off.
func (j *Job) View(withResult bool) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:      j.id,
		Spec:    j.req.Spec,
		Workers: j.req.Workers,
		Status:  j.status.String(),
		Error:   j.errMsg,
		Created: j.created,
		Events:  len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// Scheduler multiplexes jobs over one fleet: a bounded FIFO queue,
// admission decided by the fleet's own idle count, and one runner
// goroutine per admitted job.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	queue    []*Job          // strictly FIFO; queue[0] is next to admit
	jobs     map[string]*Job // jobs held in memory, by id: live ones, and finished ones without a journal
	retired  map[string]View // finished jobs held in the journal: their summary only
	order    []string        // submission order of every job, for listing
	seq      int
	draining bool
	wg       sync.WaitGroup // one count per running job

	// runJob executes an admitted job over its lease. It is the real
	// solver run in production and a test seam in unit tests.
	runJob func(ctx context.Context, j *Job, lease Lease) (*core.Result, error)
}

// New returns a Scheduler over cfg's fleet. It validates the pieces a
// misassembled daemon would otherwise discover at first submission.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Fleet == nil {
		return nil, fmt.Errorf("serve: Config.Fleet is required")
	}
	if cfg.Resolve == nil {
		return nil, fmt.Errorf("serve: Config.Resolve is required")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, fmt.Errorf("serve: Config.Cluster: %w", err)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: QueueDepth %d < 0", cfg.QueueDepth)
	}
	s := &Scheduler{
		cfg:     cfg,
		jobs:    make(map[string]*Job),
		retired: make(map[string]View),
	}
	s.runJob = s.solve
	if cfg.Store != nil {
		s.recoverJobs()
	}
	return s, nil
}

// logf logs through the configured sink.
func (s *Scheduler) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Notify wakes the admission pump; wire it to the fleet's registry
// callback (nettrans.MasterConfig.OnRegistry) so worker joins, losses
// and lease releases admit waiting jobs promptly.
func (s *Scheduler) Notify() { s.pump() }

// Submit validates and enqueues one job. The search configuration is
// validated now (so the submitter learns immediately), the problem is
// resolved now (so master and workers cannot disagree later), and the
// job is refused outright when the queue is full or the fleet could
// never supply the requested workers.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	if req.Workers < 0 {
		return nil, fmt.Errorf("serve: workers %d < 0", req.Workers)
	}
	req.Cfg.Transport = nil
	req.Cfg.Progress = nil
	req.Cfg.ProblemSpec = nil
	// Persistence is the scheduler's, not the submitter's: the store (and
	// the run's snapshot namespace) is attached at solve time.
	req.Cfg.Store = nil
	req.Cfg.RunID = ""
	if err := req.Cfg.Validate(); err != nil {
		return nil, err
	}
	prob, err := s.cfg.Resolve(req.Spec)
	if err != nil {
		return nil, fmt.Errorf("serve: resolve problem: %w", err)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if total := s.cfg.Fleet.TotalWorkers(); req.Workers > total {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d requested, %d registered", ErrNeverAdmissible, req.Workers, total)
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d queued", ErrQueueFull, len(s.queue))
	}
	s.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:      fmt.Sprintf("j%d", s.seq),
		req:     req,
		prob:    prob,
		ctx:     ctx,
		cancel:  cancel,
		created: time.Now(),
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	j.append("queued", nil, "")
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue = append(s.queue, j)
	s.mu.Unlock()

	s.persistJob(j)
	s.logf("serve: %s queued (%s, %d workers)", j.id, describeSpec(req.Spec), req.Workers)
	s.pump()
	return j, nil
}

// describeSpec renders a spec for log lines.
func describeSpec(spec core.ProblemSpec) string {
	switch spec.Kind {
	case "qap":
		return fmt.Sprintf("qap n=%d seed=%d", spec.QAPN, spec.QAPSeed)
	case "flowshop", "jobshop":
		return fmt.Sprintf("%s %s", spec.Kind, spec.Instance)
	}
	return fmt.Sprintf("%s %s", spec.Kind, spec.Circuit)
}

// Get returns a job by id. A finished job that has left memory is
// rebuilt from its journal record, result and event log included.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	v, retired := s.retired[id]
	s.mu.Unlock()
	if ok || !retired {
		return j, ok
	}
	return s.loadJob(v), true
}

// Jobs lists every job's summary (without its result) in submission
// order.
func (s *Scheduler) Jobs() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, len(s.order))
	for i, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out[i] = j.View(false)
		} else {
			out[i] = s.retired[id]
		}
	}
	return out
}

// Count returns how many jobs the scheduler knows, finished ones
// included.
func (s *Scheduler) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Queued returns how many jobs wait in the queue.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Fleet exposes the scheduler's fleet for status endpoints.
func (s *Scheduler) Fleet() Fleet { return s.cfg.Fleet }

// Cancel stops a job: a queued job leaves the queue immediately, a
// running job has its context cancelled and drains to its best-so-far
// (reported as Cancelled once the run unwinds). Cancelling a terminal
// job returns ErrTerminal.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		v, retired := s.retired[id]
		s.mu.Unlock()
		if retired {
			return fmt.Errorf("%w: %s is %s", ErrTerminal, id, v.Status)
		}
		return fmt.Errorf("serve: no job %q", id)
	}
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.mu.Unlock()
			j.finish(Cancelled, nil, "")
			s.settle(j)
			s.logf("serve: %s cancelled while queued", id)
			s.pump() // queue shifted: a smaller job may now be at the head
			return nil
		}
	}
	s.mu.Unlock()

	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.status)
	}
	j.cancelReq = true
	j.mu.Unlock()
	j.cancel()
	s.logf("serve: %s cancel requested", id)
	return nil
}

// pump admits queued jobs in strict FIFO order while the head job's
// worker request fits the idle fleet. The head blocks the line by
// design — a later small job never overtakes an earlier large one.
func (s *Scheduler) pump() {
	for {
		s.mu.Lock()
		if s.draining || len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		n := j.req.Workers
		if n > s.cfg.Fleet.FreeWorkers() {
			s.mu.Unlock()
			return
		}
		lease, err := s.cfg.Fleet.Lease(n)
		if err != nil {
			s.mu.Unlock()
			if errors.Is(err, ErrNoCapacity) {
				// A worker died between the count and the claim; the loss
				// notification re-pumps.
				return
			}
			s.dropHead(j)
			j.finish(Failed, nil, fmt.Sprintf("lease workers: %v", err))
			s.settle(j)
			s.logf("serve: %s failed to lease: %v", j.id, err)
			continue
		}
		s.queue = s.queue[1:]
		j.mu.Lock()
		j.status = Running
		j.started = time.Now()
		j.append("running", nil, "")
		j.mu.Unlock()
		s.wg.Add(1)
		s.mu.Unlock()

		s.persistJob(j)
		s.logf("serve: %s running on %d worker(s) %v", j.id, n, lease.Workers())
		go s.run(j, lease)
	}
}

// dropHead removes j from the queue head if it is still there.
func (s *Scheduler) dropHead(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) > 0 && s.queue[0] == j {
		s.queue = s.queue[1:]
	}
}

// run executes one admitted job and retires its lease no matter how the
// run ends.
func (s *Scheduler) run(j *Job, lease Lease) {
	defer s.wg.Done()
	res, err := s.runJob(j.ctx, j, lease)
	// The run's own finisher already returned the lease's workers to the
	// fleet on every path through core.RunProblem; Release covers runs
	// that never reached it (idempotent either way).
	lease.Release()

	j.mu.Lock()
	userCancel := j.cancelReq
	j.mu.Unlock()
	switch {
	case err != nil:
		j.finish(Failed, nil, err.Error())
		s.logf("serve: %s failed: %v", j.id, err)
	case res.Interrupted && userCancel:
		j.finish(Cancelled, res, "")
		s.logf("serve: %s cancelled at best-so-far %.6g after %d round(s)", j.id, res.BestCost, res.Rounds)
	case res.Interrupted:
		j.finish(Failed, res, "run aborted mid-flight; best-so-far result attached")
		s.logf("serve: %s aborted at best-so-far %.6g after %d round(s)", j.id, res.BestCost, res.Rounds)
	default:
		j.finish(Done, res, "")
		s.logf("serve: %s done: best %.6g in %d round(s)", j.id, res.BestCost, res.Rounds)
	}
	s.settle(j)
	s.pump()
}

// solve is the production runner: the job's search configuration over
// its lease, with progress streamed into the job's event log. The spec
// rides in the job payload so resolver-equipped worker daemons rebuild
// the problem on their side.
func (s *Scheduler) solve(ctx context.Context, j *Job, lease Lease) (*core.Result, error) {
	cfg := j.req.Cfg
	cfg.Transport = lease
	spec := j.req.Spec
	cfg.ProblemSpec = &spec
	cfg.Progress = j.progress
	if s.cfg.Store != nil {
		// Snapshots under "runs/<job id>", so a daemon restart resumes
		// this job where its last barrier left it.
		cfg.Store = s.cfg.Store
		cfg.RunID = runID(j.id)
	}
	return core.RunProblem(ctx, j.prob, s.cfg.Cluster, cfg, core.Real)
}

// Drain shuts the scheduler down: refuse new submissions, cancel every
// queued job, cancel every running job's context (they unwind to their
// best-so-far as Cancelled), and wait for the runners — or for ctx,
// whichever first.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	queued := s.queue
	s.queue = nil
	var running []*Job
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok && j.Status() == Running {
			running = append(running, j)
		}
	}
	s.mu.Unlock()

	for _, j := range queued {
		j.finish(Cancelled, nil, "")
		s.settle(j)
	}
	for _, j := range running {
		j.mu.Lock()
		j.cancelReq = true
		j.mu.Unlock()
		j.cancel()
	}
	if len(queued) > 0 || len(running) > 0 {
		s.logf("serve: draining: cancelled %d queued, interrupting %d running", len(queued), len(running))
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}
