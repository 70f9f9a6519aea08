// Distributed execution: what crosses a process boundary when the
// parallel tabu search runs on the nettrans TCP transport.
//
// The deployment is SPMD like classic PVM applications: every process —
// master and workers — constructs the same Problem from its own inputs
// (the same circuit file, the same QAP seed), so only the protocol
// messages, a small job description and tiny spawn specs travel on the
// wire. The job description carries a problem fingerprint (name + size)
// so a worker pointed at the wrong inputs refuses the job instead of
// corrupting the search.
package core

import (
	"context"
	"encoding/gob"
	"fmt"
	"math"

	"pts/internal/pvm"
	"pts/internal/pvm/nettrans"
)

// Portable task kinds of the PTS protocol.
const (
	taskKindTSW = "pts.tsw"
	taskKindCLW = "pts.clw"
)

// tswSpec rebuilds a TSW body on whichever process hosts it. Resume,
// when non-nil, is the checkpoint a TSW continues from instead of
// awaiting a fresh TagInit — the master sets it when resurrecting a
// lost TSW and when resuming a run from its snapshot.
type tswSpec struct {
	Master pvm.TaskID
	Resume *tswCheckpoint
}

// clwSpec rebuilds a CLW body on whichever process hosts it. The CLW
// learns its parent from its first TagInit's sender and its search
// parameters from the job's Config, so the spec carries nothing.
type clwSpec struct{}

// ProblemSpec names a built-in workload well enough for any process to
// construct it deterministically — the serving mode's answer to SPMD
// problem construction: instead of starting every worker with one fixed
// problem, a daemon fleet resolves each job's problem on demand from
// the spec in its payload. The usual fingerprint validation still runs
// afterwards, so a resolver that builds the wrong instance refuses the
// job rather than corrupting the search.
type ProblemSpec struct {
	// Kind selects the workload family: "placement", "qap", "flowshop"
	// or "jobshop".
	Kind string
	// Circuit is the placement benchmark name (e.g. "c532") or circuit
	// file path, for Kind "placement".
	Circuit string
	// QAPN and QAPSeed parameterize the random QAP instance, for Kind
	// "qap".
	QAPN    int
	QAPSeed uint64
	// Instance is the embedded scheduling benchmark name (e.g. "ta001",
	// "ft06"), for Kinds "flowshop" and "jobshop".
	Instance string
}

// jobPayload is the job description the master ships to every worker
// when a distributed run starts.
type jobPayload struct {
	// Problem, Size and InitialCost fingerprint the master's problem; a
	// worker whose locally constructed problem disagrees refuses the
	// job. InitialCost is the discriminating part: it is derived from
	// the full instance data (matrices, netlist, cost goals) by the
	// deterministic Initial(seed), so two same-named instances of equal
	// size but different content (e.g. RandomQAP with another seed)
	// still collide with probability ~0.
	Problem     string
	Size        int32
	InitialCost float64
	// Cfg is the master's Config. Its ProblemSpec, when non-nil, lets
	// resolver-equipped workers construct the job's problem on demand.
	Cfg Config
}

// newJobPayload builds the job description of a distributed run. The
// Config travels as itself minus its process-local parts: gob skips the
// Progress func field, and Store and Transport are zeroed so the
// interfaces go out nil.
func newJobPayload(prob Problem, cfg Config, initCost float64) jobPayload {
	cfg.Store, cfg.Transport, cfg.Progress = nil, nil, nil
	return jobPayload{Problem: prob.Name(), Size: prob.Size(), InitialCost: initCost, Cfg: cfg}
}

// runSummary is the final outcome the master reports back to workers,
// so a joining process returns the same result as the master.
type runSummary struct {
	Problem     string
	BestCost    float64
	BestPerm    []int32
	InitialCost float64
	Elapsed     float64
	Rounds      int
	Interrupted bool
}

func init() {
	// Everything that crosses the wire as an interface value must be
	// gob-registered identically in every process of the cluster.
	gob.Register(initMsg{})
	gob.Register(candMsg{})
	gob.Register(rebalanceMsg{})
	gob.Register(respawnMsg{})
	gob.Register(respawnAckMsg{})
	gob.Register(tswCheckpoint{})
	gob.Register(syncMsg{})
	gob.Register(stateMsg{})
	gob.Register(bestMsg{})
	gob.Register(globalMsg{})
	gob.Register(WorkerStats{})
	gob.Register(tswSpec{})
	gob.Register(clwSpec{})
	gob.Register(jobPayload{})
	gob.Register(runSummary{})
}

// taskFactory rebuilds the protocol's portable task bodies over the
// process's own problem and configuration — pvm.Options.Spawner on the
// master, the nettrans.TaskFactory on workers. The same factory serving
// both sides is what keeps a task's behavior independent of where it
// lands.
func taskFactory(prob Problem, cfg Config) pvm.TaskFactory {
	return func(kind string, data any) (pvm.TaskFunc, error) {
		switch kind {
		case taskKindTSW:
			spec, ok := data.(tswSpec)
			if !ok {
				return nil, fmt.Errorf("core: task kind %q wants tswSpec, got %T", kind, data)
			}
			return func(env pvm.Env) { tswRun(env, prob, cfg, spec.Master, spec.Resume) }, nil
		case taskKindCLW:
			if _, ok := data.(clwSpec); !ok {
				return nil, fmt.Errorf("core: task kind %q wants clwSpec, got %T", kind, data)
			}
			return func(env pvm.Env) { clwRun(env, prob, cfg) }, nil
		default:
			return nil, fmt.Errorf("core: unknown task kind %q", kind)
		}
	}
}

// nearlyEqual compares fingerprint costs to within 1e-9 relative — far
// below any real instance difference, above any FMA-contraction drift.
func nearlyEqual(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// WorkerOptions configures a worker process of a distributed run.
type WorkerOptions struct {
	// Addr is the master's TCP address.
	Addr string
	// Name uniquely identifies the worker in the master registry.
	Name string
	// Speed is the node's declared relative compute speed (default 1.0).
	Speed float64
	// Capacity is how many machine slots the node contributes
	// (default 1).
	Capacity int
	// Jobs bounds how many jobs to serve (0 = until ctx cancels).
	Jobs int
	// Resolve, when non-nil, constructs a job's problem from the
	// ProblemSpec in its payload, letting one daemon serve any built-in
	// workload. A worker started with a fixed problem ignores it; a
	// worker started with a nil problem requires it.
	Resolve func(ProblemSpec) (Problem, error)
	// Drain, when non-nil, requests a graceful shutdown when it becomes
	// readable (typically a closed channel): the worker deregisters from
	// the master cleanly instead of dropping its connection, and
	// ServeWorker returns nil.
	Drain <-chan struct{}
	// Logf, when non-nil, receives connection and job lifecycle lines.
	Logf func(format string, args ...any)
}

// workerHandler is the program half of a worker daemon: it validates
// incoming jobs against the locally constructed problem and records the
// final summaries.
type workerHandler struct {
	prob    Problem // fixed problem; nil for resolver-equipped daemons
	resolve func(ProblemSpec) (Problem, error)
	onJob   func(*Result)
	cur     Problem // the current job's problem (jobs are served sequentially)
}

func (h *workerHandler) Start(payload any) (nettrans.TaskFactory, error) {
	jp, ok := payload.(jobPayload)
	if !ok {
		return nil, fmt.Errorf("core: unexpected job payload %T", payload)
	}
	cfg := jp.Cfg
	// A malformed config (say, CLWs < 0) would crash the daemon at the
	// first spawn; refuse the job like any other mismatch instead.
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: job %s carries an invalid config: %w", jp.Problem, err)
	}
	prob := h.prob
	if prob == nil {
		// Serving mode: construct the job's problem from its spec.
		if cfg.ProblemSpec == nil {
			return nil, fmt.Errorf("core: job %s carries no problem spec and this worker has no fixed problem", jp.Problem)
		}
		p, err := h.resolve(*cfg.ProblemSpec)
		if err != nil {
			return nil, fmt.Errorf("core: resolving job problem %s: %w", jp.Problem, err)
		}
		prob = p
	}
	if jp.Problem != prob.Name() || jp.Size != prob.Size() {
		return nil, fmt.Errorf("core: job is %s (%d elements) but this worker built %s (%d elements); start the worker with the master's inputs",
			jp.Problem, jp.Size, prob.Name(), prob.Size())
	}
	// Derive the run-scoped shared context (e.g. the placement fuzzy
	// goals) exactly as the master did, so locally minted states score
	// identically. Initial is deterministic in the seed, so the state
	// itself is discarded — but its cost must reproduce the master's
	// exactly, or this process was built over different instance data
	// (or different cost goals) and would corrupt the search.
	st, err := prob.Initial(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: deriving shared initial state: %w", err)
	}
	// A tight relative tolerance (not bitwise equality): hardware that
	// contracts a*b+c into an FMA may differ from the master in the last
	// ulps on identical inputs, while genuinely different instance data
	// lands orders of magnitude away.
	if c := st.Cost(); !nearlyEqual(c, jp.InitialCost) {
		return nil, fmt.Errorf("core: job %s: this worker's initial cost %v does not reproduce the master's %v; the problem inputs (or cost configuration) differ",
			jp.Problem, c, jp.InitialCost)
	}
	h.cur = prob
	return taskFactory(prob, cfg), nil
}

func (h *workerHandler) Done(summary any) {
	rs, ok := summary.(runSummary)
	if !ok || h.onJob == nil {
		return
	}
	res := &Result{
		Problem:     rs.Problem,
		BestCost:    rs.BestCost,
		BestPerm:    rs.BestPerm,
		InitialCost: rs.InitialCost,
		Elapsed:     rs.Elapsed,
		Rounds:      rs.Rounds,
		Interrupted: rs.Interrupted,
	}
	if prob := h.cur; prob != nil {
		if r, err := finalize(prob, res); err == nil {
			res = r
		}
	}
	h.onJob(res)
}

// ServeWorker runs a worker daemon for distributed solves: join the
// master at opts.Addr (reconnecting with backoff while unreachable),
// host this node's share of TSW/CLW tasks for each job, and hand every
// job's final result — the same outcome the master returns — to onJob
// (which may be nil). It returns after opts.Jobs jobs, or when ctx is
// cancelled.
//
// prob may be nil when opts.Resolve is set: the daemon then serves any
// built-in workload, constructing each job's problem from the spec in
// its payload.
func ServeWorker(ctx context.Context, prob Problem, opts WorkerOptions, onJob func(*Result)) error {
	if prob == nil && opts.Resolve == nil {
		return fmt.Errorf("core: worker needs a problem or a resolver")
	}
	return nettrans.RunWorker(ctx, nettrans.WorkerConfig{
		Addr:     opts.Addr,
		Name:     opts.Name,
		Speed:    opts.Speed,
		Capacity: opts.Capacity,
		Jobs:     opts.Jobs,
		Drain:    opts.Drain,
		Logf:     opts.Logf,
	}, &workerHandler{prob: prob, resolve: opts.Resolve, onJob: onJob})
}
