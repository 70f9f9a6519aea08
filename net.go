package pts

import (
	"context"
	"fmt"
	"os"

	"pts/internal/core"
	"pts/internal/pvm/nettrans"
)

// NetMaster is the master side of a distributed run: a TCP listener
// plus a registry of joined worker processes, each contributing machine
// slots with a declared relative speed — the heterogeneity knobs the
// simulated cluster expresses as machine speed factors. One NetMaster
// hosts one Solve, passed to it with WithMaster; every other process
// of the run is a Worker.
type NetMaster struct {
	m *nettrans.Master
}

// ListenMaster binds addr immediately and starts accepting worker
// joins in the background; the Solve given it by WithMaster starts
// once `workers` workers have joined. Use ":0" to let the OS pick a
// port and Addr to discover it.
func ListenMaster(addr string, workers int) (*NetMaster, error) {
	if workers < 1 {
		return nil, fmt.Errorf("pts: a distributed run needs at least 1 worker, got %d", workers)
	}
	m, err := nettrans.Listen(nettrans.MasterConfig{Addr: addr, Workers: workers})
	if err != nil {
		return nil, err
	}
	return &NetMaster{m: m}, nil
}

// Addr returns the bound listen address.
func (n *NetMaster) Addr() string { return n.m.Addr() }

// WorkerInfo describes one registered worker process.
type WorkerInfo struct {
	// Name is the worker's cluster-unique registry name.
	Name string
	// Speed is its declared relative speed factor.
	Speed float64
	// Capacity is how many machine slots it contributes.
	Capacity int
}

// Workers lists the currently registered worker processes — waiting in
// the lobby before a run, or claimed by the running one (including
// workers absorbed mid-run by an adaptive job).
func (n *NetMaster) Workers() []WorkerInfo {
	nodes := n.m.Nodes()
	out := make([]WorkerInfo, len(nodes))
	for i, nd := range nodes {
		out[i] = WorkerInfo{Name: nd.Name, Speed: nd.Speed, Capacity: nd.Capacity}
	}
	return out
}

// Close releases the listener and drops idle worker connections. Solve
// closes the master itself after a run; Close is for abandoning one
// that never ran.
func (n *NetMaster) Close() error { return n.m.Close() }

// WithMaster makes the run distributed with this process as the
// master: wait until m's workers have joined (pts.Worker, or
// `pts -worker`), then run the master/TSW/CLW protocol across them,
// with every joined node hosting its share of the workers. Implies
// WithRealTime: the virtual runtime is single-process by construction
// (its determinism is the point), so combining a master with
// WithVirtualTime is a configuration error. A nil m is a no-op.
func WithMaster(m *NetMaster) Option {
	return func(s *settings) {
		if m != nil {
			s.cfg.Transport = m.m
		}
	}
}

// WithWorkScale makes real-time runs emulate machine speed: every
// modeled work charge of s reference seconds sleeps s*scale/speed wall
// seconds on its node, so nodes with different declared speeds finish
// rounds at different times — the regime the half-sync adaptation
// targets. 0 (the default) makes modeled work free in real time.
func WithWorkScale(scale float64) Option {
	return func(s *settings) { s.cfg.WorkScale = scale }
}

// nodeName defaults an empty worker name to "<hostname>:<pid>".
func nodeName(name string) string {
	if name != "" {
		return name
	}
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// Worker runs a worker process of distributed runs: join the master at
// addr (retrying with backoff while it is unreachable), host this
// node's share of TSW/CLW tasks for `jobs` jobs (0 = until ctx
// cancels), and hand each job's final Result — the same outcome the
// master's Solve returns — to onJob (which may be nil). With jobs 1 it
// serves one run and returns; it is also how `pts -worker` and the
// workers of a ListenServer fleet run.
//
// p may be non-nil — one fixed problem, built from the same inputs as
// the master's (it is fingerprinted and jobs refused on mismatch) — or
// nil, in which case the worker constructs each job's problem on
// demand from the built-in workload named in the job's payload, as
// multi-job fleets require. Search options are the master's; node only
// declares this process's registry entry.
func Worker(ctx context.Context, p Problem, addr string, node NodeOptions, jobs int, onJob func(*Result)) error {
	var deliver func(*core.Result)
	if onJob != nil {
		deliver = func(r *core.Result) { onJob(resultFromCore(r)) }
	}
	var prob core.Problem
	var resolve func(core.ProblemSpec) (core.Problem, error)
	if p != nil {
		prob = adapt(p)
	} else {
		resolve = resolveSpec
	}
	return core.ServeWorker(ctx, prob, core.WorkerOptions{
		Addr:     addr,
		Name:     nodeName(node.Name),
		Speed:    node.Speed,
		Capacity: node.Capacity,
		Jobs:     jobs,
		Resolve:  resolve,
		Drain:    node.Drain,
		Logf:     node.Logf,
	}, deliver)
}

// NodeOptions is Worker's registry entry.
type NodeOptions struct {
	// Name uniquely identifies the node (default "<hostname>:<pid>").
	Name string
	// Speed is the node's relative speed factor (default 1.0).
	Speed float64
	// Capacity is the node's machine-slot count (default 1).
	Capacity int
	// Drain, when non-nil, requests graceful shutdown when it becomes
	// receivable (close it): the worker deregisters from the master —
	// finishing cleanly if idle, having its in-flight tasks written off
	// like a loss but in an orderly fashion if mid-job — and Worker
	// returns nil instead of reconnecting. This is how `pts -worker`
	// and fleet workers honor SIGTERM.
	Drain <-chan struct{}
	// Logf, when non-nil, receives connection lifecycle lines.
	Logf func(format string, args ...any)
}
