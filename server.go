package pts

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/pvm/nettrans"
	"pts/internal/serve"
)

// ServerOptions configures ListenServer. The zero value is a working
// local daemon: loopback fleet on an OS-picked port, the default queue
// depth, no logging, and no persistence.
type ServerOptions struct {
	// FleetAddr is the TCP address worker daemons dial. Zero value
	// "127.0.0.1:0" accepts loopback workers on an OS-picked port; use
	// ":0" to accept workers from other hosts, or a fixed
	// ":9017"-style address.
	FleetAddr string
	// QueueDepth bounds how many jobs may wait behind the running ones;
	// submissions beyond it are refused with queue_full. Zero value
	// means serve.DefaultQueueDepth.
	QueueDepth int
	// Store, when non-nil, makes the daemon crash-only: every job's
	// spec, lifecycle and result is journaled under "jobs/<id>", each
	// running job's solver snapshots under "runs/<id>", and a restarted
	// ListenServer over the same store re-serves completed results,
	// re-admits queued jobs, and resumes interrupted runs from the
	// newest barrier snapshot whose write finished (see WithStore).
	// One job's journal writes land in order, so a cancelled job is
	// never re-admitted. Zero value (nil) keeps all job state in
	// memory — a restart starts empty.
	Store Store
	// Logf, when non-nil, receives fleet and scheduler lifecycle lines.
	// Zero value discards them.
	Logf func(format string, args ...any)
}

// Server is the solver-as-a-service core: one long-lived worker fleet
// multiplexing many concurrent solver jobs, fronted by an HTTP API.
// Workers join the fleet address exactly like single-run distributed
// workers (Worker or `pts -worker`) — a nil problem makes them serve
// any built-in workload — and each admitted job leases its own disjoint
// subset of them, so no worker ever hosts tasks of two jobs at once.
//
// Server owns the fleet listener and the job scheduler; the caller owns
// the HTTP listener (serve Handler with net/http — cmd/ptsd does).
type Server struct {
	master *nettrans.Master
	sched  *serve.Scheduler
	api    *serve.API
}

// ListenServer binds the fleet address and starts accepting worker
// joins and job submissions immediately. Jobs submitted before enough
// workers joined simply wait in the queue (unless they ask for more
// workers than the whole fleet, which is refused).
func ListenServer(opts ServerOptions) (*Server, error) {
	if opts.FleetAddr == "" {
		opts.FleetAddr = "127.0.0.1:0"
	}
	// The registry callback outlives this constructor and must see the
	// scheduler created after the master; late-bind it atomically.
	var sched atomic.Pointer[serve.Scheduler]
	m, err := nettrans.Listen(nettrans.MasterConfig{
		Addr: opts.FleetAddr,
		Logf: opts.Logf,
		OnRegistry: func() {
			if s := sched.Load(); s != nil {
				s.Notify()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Config{
		Fleet:      serve.NettransFleet{M: m},
		Resolve:    resolveSpec,
		Cluster:    cluster.Testbed12(defaultTestbedSeed),
		QueueDepth: opts.QueueDepth,
		Store:      opts.Store,
		Logf:       opts.Logf,
	})
	if err != nil {
		m.Close()
		return nil, err
	}
	sched.Store(s)
	// Pump once now that the registry callback can reach the scheduler:
	// jobs recovered from the store at construction are waiting in the
	// queue and must not depend on a future worker join to start.
	s.Notify()
	return &Server{master: m, sched: s, api: serve.NewAPI(s)}, nil
}

// FleetAddr returns the bound fleet listen address workers dial.
func (s *Server) FleetAddr() string { return s.master.Addr() }

// Handler returns the HTTP API: job submission, listing, cancellation,
// per-job event streams, and fleet status.
func (s *Server) Handler() http.Handler { return s.api.Handler() }

// Workers lists the currently registered fleet workers.
func (s *Server) Workers() []WorkerInfo {
	nodes := s.master.Nodes()
	out := make([]WorkerInfo, len(nodes))
	for i, nd := range nodes {
		out[i] = WorkerInfo{Name: nd.Name, Speed: nd.Speed, Capacity: nd.Capacity}
	}
	return out
}

// Drain shuts the scheduler down gracefully: new submissions are
// refused, queued jobs are cancelled, and running jobs are interrupted
// at their next protocol boundary — each finishing as Cancelled with
// its best-so-far result. Drain returns when every runner unwound, or
// with ctx's error.
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// Close releases the fleet listener and every worker connection. Call
// Drain first for a graceful shutdown.
func (s *Server) Close() error { return s.master.Close() }

// resolveSpec constructs the built-in workload a job spec names. It is
// the shared resolver of the serving master and of resolver-equipped
// worker daemons (Worker with a nil problem), so both sides build each
// job's problem from the same inputs.
func resolveSpec(spec core.ProblemSpec) (core.Problem, error) {
	switch spec.Kind {
	case "placement":
		p, err := PlacementBenchmark(spec.Circuit)
		if err != nil {
			return nil, err
		}
		return adapt(p), nil
	case "qap":
		if spec.QAPN < 2 {
			return nil, fmt.Errorf("pts: qap size %d < 2", spec.QAPN)
		}
		return adapt(RandomQAP(spec.QAPN, spec.QAPSeed)), nil
	case "flowshop":
		p, err := FlowShopBenchmark(spec.Instance)
		if err != nil {
			return nil, err
		}
		return adapt(p), nil
	case "jobshop":
		p, err := JobShopBenchmark(spec.Instance)
		if err != nil {
			return nil, err
		}
		return adapt(p), nil
	default:
		return nil, fmt.Errorf("pts: unknown problem kind %q (want \"placement\", \"qap\", \"flowshop\" or \"jobshop\")", spec.Kind)
	}
}
