package nettrans

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pts/internal/pvm"
	"pts/internal/rng"
)

// MasterConfig configures the master side of a distributed run.
type MasterConfig struct {
	// Addr is the TCP listen address (e.g. ":9017" or "127.0.0.1:0").
	Addr string
	// Workers is the minimum number of workers that must have joined
	// before a run starts; every worker joined by then participates.
	Workers int
	// JoinWait bounds how long Run waits for Workers workers to join
	// (default 2 minutes).
	JoinWait time.Duration
	// ByeWait bounds the post-run counter collection per worker
	// (default 5 seconds).
	ByeWait time.Duration
	// Logf, when non-nil, receives one line per registry event (joins,
	// refusals, losses).
	Logf func(format string, args ...any)
	// OnRegistry, when non-nil, is called — without master locks held —
	// after the set of idle workers changes: a join, a drain or loss, or
	// a finished lease returning its nodes. Serving layers use it to pump
	// their admission queue.
	OnRegistry func()
}

// Master is the hub transport: it listens for worker joins, records
// their capacity and speed in the registry, and hosts runs whose tasks
// execute partly in this process and partly on the joined workers.
//
// Two usage modes share the registry. The one-shot mode — Master itself
// implements pvm.Transport and pvm.Finisher — claims every joined
// worker for a single run and shuts the master down when it finishes.
// The serving mode hands out long-lived slices of the fleet instead:
// Lease claims a disjoint subset of idle workers, hosts one run on it
// (each Lease is itself a pvm.Transport and pvm.Finisher), and returns
// the workers — connections intact — to the lobby for the next job, so
// one master multiplexes many concurrent runs without ever sharing a
// machine slot between two of them.
type Master struct {
	cfg MasterConfig
	ln  net.Listener

	mu        sync.Mutex
	cond      *sync.Cond
	lobby     []*node
	names     map[string]*node
	closed    bool
	exclusive *job              // the one-shot Run's job, target of elastic absorption
	active    map[*job]struct{} // every running job, one-shot or leased
}

// node is one registered worker process.
type node struct {
	name     string
	speed    float64
	capacity int
	c        *conn

	firstSlot, slots int

	alive bool   // guarded by its current job's mu
	job   *job   // the run currently hosted on this node; guarded by Master.mu
	lease *Lease // non-nil from Lease() until the nodes are returned; guarded by Master.mu
	gone  bool   // retired from the registry (lost, drained or misbehaving); guarded by Master.mu
	sends int64  // guarded by its current job's mu
	bye   chan struct{}
}

// NodeInfo describes one registry entry.
type NodeInfo struct {
	Name     string
	Speed    float64
	Capacity int
	// Busy reports that the worker is leased to (or hosting) a run
	// rather than idle in the lobby.
	Busy bool
}

// Listen starts a master: it binds cfg.Addr immediately and accepts
// worker joins in the background, so workers may connect before the run
// starts.
func Listen(cfg MasterConfig) (*Master, error) {
	// Workers only gates the one-shot Run (it waits for that many joins
	// before claiming the lobby); a lease-only serving master sets 0.
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("nettrans: negative worker count %d", cfg.Workers)
	}
	if cfg.JoinWait <= 0 {
		cfg.JoinWait = 2 * time.Minute
	}
	if cfg.ByeWait <= 0 {
		cfg.ByeWait = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	m := &Master{cfg: cfg, ln: ln, names: make(map[string]*node), active: make(map[*job]struct{})}
	m.cond = sync.NewCond(&m.mu)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the bound listen address (useful with ":0").
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Nodes lists the currently joined workers — idle, leased or hosting a
// run — in name order.
func (m *Master) Nodes() []NodeInfo {
	m.mu.Lock()
	out := make([]NodeInfo, 0, len(m.names))
	for _, n := range m.names {
		if n.gone {
			continue
		}
		out = append(out, NodeInfo{Name: n.name, Speed: n.speed, Capacity: n.capacity, Busy: n.job != nil || n.lease != nil})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// FreeWorkers returns how many joined workers are idle in the lobby —
// available for the next Lease or one-shot run.
func (m *Master) FreeWorkers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.lobby)
}

// TotalWorkers returns how many workers are joined in any state.
func (m *Master) TotalWorkers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	for _, n := range m.names {
		if !n.gone {
			total++
		}
	}
	return total
}

// notifyRegistry invokes the registry-change hook outside master locks.
func (m *Master) notifyRegistry() {
	if m.cfg.OnRegistry != nil {
		m.cfg.OnRegistry()
	}
}

// Close shuts the master down: the listener stops and every worker
// connection — idle in the lobby or claimed by a run — is dropped, so
// worker daemons never hang on a master that errored out between
// claiming them and finishing a job (their dial loops back off or give
// up). Safe to call more than once.
func (m *Master) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.lobby = nil
	conns := make([]*conn, 0, len(m.names))
	for _, n := range m.names {
		conns = append(conns, n.c)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	return m.ln.Close()
}

// acceptLoop admits workers: each connection must open with a valid
// fJoin naming a not-yet-registered worker; everything else — garbage
// bytes, oversized frames, duplicate names — is refused and dropped
// without disturbing the registry.
func (m *Master) acceptLoop() {
	for {
		nc, err := m.ln.Accept()
		if err != nil {
			return
		}
		go m.admit(nc)
	}
}

func (m *Master) admit(nc net.Conn) {
	c := newConn(nc)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := c.read()
	if err != nil || f.Type != fJoin || f.Worker == "" {
		m.cfg.Logf("nettrans: refused connection from %s: malformed join (%v)", nc.RemoteAddr(), err)
		c.close()
		return
	}
	nc.SetReadDeadline(time.Time{})
	if f.Speed <= 0 {
		f.Speed = 1
	}
	if f.Capacity < 1 {
		f.Capacity = 1
	}
	m.mu.Lock()
	switch {
	case m.closed:
		m.mu.Unlock()
		c.write(&frame{Type: fJoinAck, Err: "master closed"})
		c.close()
		return
	case m.names[f.Worker] != nil:
		m.mu.Unlock()
		m.cfg.Logf("nettrans: refused duplicate join %q from %s", f.Worker, nc.RemoteAddr())
		c.write(&frame{Type: fJoinAck, Err: fmt.Sprintf("worker name %q already joined", f.Worker)})
		c.close()
		return
	}
	n := &node{name: f.Worker, speed: f.Speed, capacity: f.Capacity, c: c, alive: true, bye: make(chan struct{})}
	// Reserve the name but do not publish the node yet: the ack must be
	// on the wire before a racing Run can claim the node and write fJob,
	// or the worker would see the job frame ahead of its join ack.
	m.names[f.Worker] = n
	m.mu.Unlock()
	if err := c.write(&frame{Type: fJoinAck}); err != nil {
		m.mu.Lock()
		delete(m.names, n.name)
		m.mu.Unlock()
		c.close()
		return
	}
	m.mu.Lock()
	if m.closed {
		delete(m.names, n.name)
		m.mu.Unlock()
		c.close()
		return
	}
	// Elastic membership: while an exclusive elastic job is running, a
	// late joiner is claimed for it immediately as spare capacity instead
	// of waiting in the lobby for the next job. Leased jobs never absorb
	// — their workers belong to a shared fleet, so spare capacity goes to
	// the lobby where the serving layer's admission queue can use it.
	j := m.exclusive
	absorb := j != nil && j.opts.Elastic
	if absorb {
		n.job = j
	} else {
		m.lobby = append(m.lobby, n)
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	if absorb && !j.absorb(n) {
		// The job ended between the check and the claim: park the node in
		// the lobby after all.
		m.mu.Lock()
		n.job = nil
		if m.closed {
			delete(m.names, n.name)
			m.mu.Unlock()
			c.close()
			return
		}
		m.lobby = append(m.lobby, n)
		m.cond.Broadcast()
		m.mu.Unlock()
	}
	m.cfg.Logf("nettrans: worker %q joined (speed %.2f, capacity %d)", n.name, n.speed, n.capacity)
	m.notifyRegistry()
	// One persistent reader owns the connection from here on: it spots a
	// worker dying while idle in the lobby (freeing its name so the
	// daemon's reconnect is not refused as a duplicate, and keeping dead
	// nodes out of the next run) and serves the job frames once claimed.
	go m.serveConn(n)
}

// serveConn is the per-connection read loop, from admission to
// disconnect: job frames are dispatched to the run currently hosted on
// the node, idle frames other than a graceful fLeave (or a straggling
// counter report) are protocol violations, and read errors retire the
// node from whichever state it is in.
func (m *Master) serveConn(n *node) {
	for {
		f, err := n.c.read()
		j := m.jobOf(n)
		if err != nil {
			if j != nil {
				j.nodeLost(n, err)
			} else {
				m.retireIdle(n, err, false)
			}
			return
		}
		if j == nil {
			switch f.Type {
			case fLeave:
				m.retireIdle(n, nil, true)
				return
			case fBye:
				// A counter report that straggled past the job's bye
				// deadline and its release; the counters were forfeited,
				// the worker is fine.
				continue
			}
			m.retireIdle(n, fmt.Errorf("unexpected frame type %d while idle", f.Type), false)
			return
		}
		if !j.handleFrame(n, f) {
			return
		}
	}
}

// jobOf returns the run currently hosted on n, if any.
func (m *Master) jobOf(n *node) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return n.job
}

// retire removes a node from the registry: its name is freed so a
// reconnecting daemon can rejoin, and the node is marked gone so a
// pending lease will not hand it to a new run.
func (m *Master) retire(n *node) {
	m.mu.Lock()
	delete(m.names, n.name)
	n.gone = true
	m.mu.Unlock()
}

// retireIdle retires a worker that left — gracefully (drained) or not —
// while idle in the lobby or leased-but-not-yet-running.
func (m *Master) retireIdle(n *node, cause error, drained bool) {
	m.mu.Lock()
	for i, ln := range m.lobby {
		if ln == n {
			m.lobby = append(m.lobby[:i], m.lobby[i+1:]...)
			break
		}
	}
	delete(m.names, n.name)
	n.gone = true
	m.mu.Unlock()
	// Log before closing: a draining worker returns once it sees the
	// close, and its owner may then retire the log sink.
	if drained {
		m.cfg.Logf("nettrans: worker %q drained and left the registry", n.name)
	} else {
		m.cfg.Logf("nettrans: worker %q left the lobby: %v", n.name, cause)
	}
	n.c.close()
	m.notifyRegistry()
}

// Run implements pvm.Transport: wait for the registry to fill, assign
// machine slots, broadcast the job, then execute root here while the
// joined workers host their share of the spawned tasks. This is the
// one-shot mode: it claims every joined worker and the paired Finish
// shuts the master down.
func (m *Master) Run(opts pvm.Options, root pvm.TaskFunc) (float64, error) {
	nodes, err := m.takeWorkers(opts)
	if err != nil {
		return 0, err
	}
	j := m.buildJob(nodes, opts)
	m.launch(j, true)
	return m.runJob(j, opts, root)
}

// buildJob lays out one run over the claimed nodes: slot 0 is this
// process, each worker contributes capacity slots, and machine indices
// from 1 up wrap over the worker slots alone (ringSlot), so only the
// root stays here when the run has workers. The slot table must
// be complete before the job is published: once a node's job pointer is
// set, frames from (possibly misbehaving) claimed workers are
// dispatched into j and must never observe totalSlots == 0.
func (m *Master) buildJob(nodes []*node, opts pvm.Options) *job {
	j := &job{
		m:        m,
		opts:     opts,
		nodes:    nodes,
		local:    make(map[pvm.TaskID]*mTask),
		watchers: make(map[pvm.TaskID][]pvm.TaskID),
		start:    time.Now(),
		allDone:  make(chan struct{}),
	}
	slot := 1
	j.speeds = append(j.speeds, 1.0) // the master's reference slot
	for _, n := range nodes {
		n.firstSlot, n.slots = slot, n.capacity
		slot += n.capacity
		for s := 0; s < n.capacity; s++ {
			j.speeds = append(j.speeds, n.speed)
		}
	}
	j.totalSlots = slot
	return j
}

// launch publishes the job — binding every claimed node to it and
// resetting the nodes' per-job counters — and ships the fJob frames.
//
// The frame fields are snapshotted before publishing: once the job is
// visible, an elastic late joiner may grow the ring concurrently, and
// the initial workers must all receive the consistent job-start ring
// (they learn about growth via fRing afterwards). Holding absorbMu
// across the initial frame writes keeps any absorption — and its fRing
// broadcast — strictly after every initial fJob is on the wire.
func (m *Master) launch(j *job, exclusive bool) {
	startSlots, startSpeeds := j.totalSlots, j.speeds
	j.absorbMu.Lock()
	m.mu.Lock()
	m.active[j] = struct{}{}
	if exclusive {
		m.exclusive = j
	}
	for _, n := range j.nodes {
		n.job = j
		n.sends = 0
		n.bye = make(chan struct{})
	}
	m.mu.Unlock()

	for _, n := range j.nodes {
		err := n.c.write(&frame{
			Type: fJob, Seed: j.opts.Seed, WorkScale: j.opts.RealWorkScale,
			Slot: n.firstSlot, Slots: n.slots, TotalSlots: startSlots,
			Speeds: startSpeeds, Data: j.opts.JobPayload,
		})
		if err != nil {
			j.nodeLost(n, err)
		}
	}
	j.absorbMu.Unlock()
}

// runJob executes root as the job's task 0 and waits the run out:
// cooperative cancellation is wired to the options context, counters
// are collected from the surviving workers, and an aborted run reports
// pvm.ErrAborted.
func (m *Master) runJob(j *job, opts pvm.Options, root pvm.TaskFunc) (float64, error) {
	// Cooperative cancellation: tasks everywhere observe Cancelled()
	// and drain the protocol; nothing is killed.
	stopCancel := make(chan struct{})
	defer close(stopCancel)
	if ctxDone := doneChan(opts); ctxDone != nil {
		go func() {
			select {
			case <-ctxDone:
				j.cancel()
			case <-stopCancel:
			}
		}()
	}

	j.spawn("root", 0, pvm.Spec{Fn: root}) //nolint:errcheck // an aborting run closes allDone itself
	<-j.allDone
	elapsed := time.Since(j.start).Seconds()

	j.mu.Lock()
	aborted, abortErr := j.aborted, j.abortErr
	j.mu.Unlock()
	if aborted {
		// Workers volunteer their counters while unwinding from fAbort;
		// collect what arrives quickly so even an interrupted result
		// accounts for the surviving nodes' sends.
		j.awaitByes(time.Second)
	} else {
		j.collectByes()
	}
	if opts.Counters != nil {
		opts.Counters.Spawns = j.spawnCount()
		opts.Counters.Sends = j.sendCount()
	}
	if aborted {
		return elapsed, fmt.Errorf("%w: %v", pvm.ErrAborted, abortErr)
	}
	return elapsed, nil
}

// doneChan mirrors pvm's optional-context handling.
func doneChan(opts pvm.Options) <-chan struct{} {
	if opts.Context == nil {
		return nil
	}
	return opts.Context.Done()
}

// takeWorkers blocks until the configured minimum of workers joined,
// then claims every joined worker for the run.
func (m *Master) takeWorkers(opts pvm.Options) ([]*node, error) {
	deadline := time.Now().Add(m.cfg.JoinWait)
	ctxDone := doneChan(opts)
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.lobby) < m.cfg.Workers {
		if m.closed {
			return nil, fmt.Errorf("nettrans: master closed while waiting for workers")
		}
		select {
		case <-ctxDone:
			return nil, fmt.Errorf("nettrans: cancelled while waiting for workers (%d of %d joined)", len(m.lobby), m.cfg.Workers)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("nettrans: %d of %d workers joined within %v", len(m.lobby), m.cfg.Workers, m.cfg.JoinWait)
		}
		// Timed wait: re-check cancellation and the deadline every 100ms.
		wake := time.AfterFunc(100*time.Millisecond, m.cond.Broadcast)
		m.cond.Wait()
		wake.Stop()
	}
	nodes := m.lobby
	m.lobby = nil
	return nodes, nil
}

// Finish implements pvm.Finisher for the one-shot mode: deliver the
// program's final summary to every surviving worker, then shut the
// master down.
func (m *Master) Finish(summary any) error {
	m.mu.Lock()
	j := m.exclusive
	m.mu.Unlock()
	var firstErr error
	if j != nil {
		nodes := j.nodeList()
		if err := j.deliverResult(summary); err != nil {
			firstErr = err
		}
		for _, n := range nodes {
			n.c.close()
		}
	}
	if err := m.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// deliverResult ships the program's final summary to the job's
// surviving workers.
func (j *job) deliverResult(summary any) error {
	var firstErr error
	for _, n := range j.nodeList() {
		if !j.ownerAlive(n) {
			continue
		}
		if err := n.c.write(&frame{Type: fResult, Data: summary}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ErrNoCapacity reports that a Lease asked for more workers than are
// idle in the lobby; callers queue and retry when the registry changes.
var ErrNoCapacity = fmt.Errorf("nettrans: not enough idle workers")

// Lease is a claimed slice of the fleet: the workers it holds belong to
// exactly one run for the lease's lifetime, so concurrent leases never
// share a machine slot. A Lease is a pvm.Transport (Run hosts one run
// on the leased workers: machine 0, the root, runs in the master
// process and every other machine index on a leased worker) and a
// pvm.Finisher (Finish delivers the final summary and returns the
// surviving workers — connections intact — to the lobby). Release is
// the idempotent cleanup for every other path: a lease abandoned before
// Run, or a run that errored before Finish.
type Lease struct {
	m *Master

	mu       sync.Mutex
	nodes    []*node
	j        *job
	released bool
}

// Lease claims workers idle workers for one run, in join (FIFO) order.
// It never blocks: when fewer than workers are idle it fails with
// ErrNoCapacity and claims nothing. workers may be 0 — the run then
// executes entirely in the master process (every machine index maps
// to slot 0).
func (m *Master) Lease(workers int) (*Lease, error) {
	if workers < 0 {
		return nil, fmt.Errorf("nettrans: lease of %d workers", workers)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("nettrans: master closed")
	}
	if len(m.lobby) < workers {
		return nil, fmt.Errorf("%w: %d idle, %d requested", ErrNoCapacity, len(m.lobby), workers)
	}
	l := &Lease{m: m, nodes: append([]*node(nil), m.lobby[:workers]...)}
	m.lobby = append([]*node(nil), m.lobby[workers:]...)
	for _, n := range l.nodes {
		n.lease = l
	}
	return l, nil
}

// Workers returns the leased worker names, in claim order.
func (l *Lease) Workers() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.nodes))
	for i, n := range l.nodes {
		out[i] = n.name
	}
	return out
}

// Run implements pvm.Transport: host one run on the leased workers.
// A leased worker that disconnected between Lease and Run fails the
// run up front — the caller decides whether to re-lease and retry.
func (l *Lease) Run(opts pvm.Options, root pvm.TaskFunc) (float64, error) {
	l.mu.Lock()
	if l.released {
		l.mu.Unlock()
		return 0, fmt.Errorf("nettrans: lease already released")
	}
	if l.j != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("nettrans: lease already ran a job")
	}
	nodes := append([]*node(nil), l.nodes...)
	l.mu.Unlock()

	m := l.m
	m.mu.Lock()
	for _, n := range nodes {
		if n.gone {
			m.mu.Unlock()
			return 0, fmt.Errorf("nettrans: leased worker %q was lost before the run started", n.name)
		}
	}
	m.mu.Unlock()

	j := m.buildJob(nodes, opts)
	l.mu.Lock()
	l.j = j
	l.mu.Unlock()
	m.launch(j, false)
	return m.runJob(j, opts, root)
}

// Finish implements pvm.Finisher: deliver the final summary to the
// leased workers that survived the run, then return them to the lobby
// for the next job.
func (l *Lease) Finish(summary any) error {
	l.mu.Lock()
	j := l.j
	l.mu.Unlock()
	var firstErr error
	if j != nil {
		firstErr = j.deliverResult(summary)
	}
	l.Release()
	return firstErr
}

// Release returns the lease's surviving workers to the lobby and
// retires the lease. Idempotent; called implicitly by Finish. Workers
// lost during the run are not returned — their names were already freed
// for their daemons' reconnects.
func (l *Lease) Release() {
	l.mu.Lock()
	if l.released {
		l.mu.Unlock()
		return
	}
	l.released = true
	j := l.j
	nodes := append([]*node(nil), l.nodes...)
	l.mu.Unlock()

	// A node is returned only when it is still registered (not gone) and
	// still bound to this lease's job — nodeLost retires the gone ones. A
	// dead-but-not-yet-retired node may slip back into the lobby here;
	// its read loop error then retires it from the lobby as usual.
	m := l.m
	m.mu.Lock()
	if j != nil {
		delete(m.active, j)
	}
	if !m.closed {
		for _, n := range nodes {
			if n.gone || n.lease != l {
				continue
			}
			n.lease = nil
			n.job = nil
			m.lobby = append(m.lobby, n)
		}
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	m.notifyRegistry()
}

// job is the state of one distributed run.
type job struct {
	m     *Master
	opts  pvm.Options
	start time.Time

	mu         sync.Mutex
	absorbMu   sync.Mutex // serializes elastic absorptions (stage→write→commit)
	nodes      []*node    // appended to by elastic absorption; snapshot under mu
	totalSlots int
	speeds     []float64                   // slot-indexed declared speeds (slot 0: master, 1.0)
	owners     []taskOwner                 // indexed by TaskID
	watchers   map[pvm.TaskID][]pvm.TaskID // watched task -> watcher tasks
	local      map[pvm.TaskID]*mTask
	localLive  int
	remoteLive int
	finished   bool
	allDone    chan struct{}
	aborted    bool
	abortErr   error
	cancelled  bool
	spawns     int64
	localSends int64
	routed     int64 // message frames workers sent through this process
}

// nodeList snapshots the job's node set; callers iterate the snapshot
// so elastic absorption can append concurrently.
func (j *job) nodeList() []*node {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]*node(nil), j.nodes...)
}

// taskOwner records where a task lives; a nil node means this process.
// lost distinguishes a task written off with its dying node from one
// that finished cleanly — only lost tasks trigger retroactive exit
// notifications when a watch is registered after the fact.
type taskOwner struct {
	node *node
	slot int
	done bool
	lost bool
}

func (j *job) spawnCount() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spawns
}

func (j *job) sendCount() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	total := j.localSends
	for _, n := range j.nodes {
		total += n.sends
	}
	return total
}

// slotOwnerLocked maps a wrapped machine slot to its owning node (nil:
// the master process itself). Callers hold j.mu.
func (j *job) slotOwnerLocked(slot int) *node {
	if slot == 0 {
		return nil
	}
	for _, n := range j.nodes {
		if slot >= n.firstSlot && slot < n.firstSlot+n.slots {
			return n
		}
	}
	return nil
}

// wrapSlotLocked normalizes a machine index onto the slot ring (see
// ringSlot). Callers hold j.mu (elastic absorption grows the ring
// mid-run).
func (j *job) wrapSlotLocked(machine int) int {
	return ringSlot(machine, j.totalSlots)
}

// ringSlot maps a machine index onto a run's slot ring of total slots,
// where slot 0 is the master process and slots 1..total-1 belong to
// the workers. Machine 0 is the master's; every other index wraps over
// the worker slots only, so a run's tasks stay on the workers it was
// given (a TSW and its CLWs share a worker instead of exchanging
// frames through the master). Without worker slots everything lands
// on slot 0. Master and worker both resolve indices through this one
// function, so they cannot disagree on a slot or its speed.
func ringSlot(machine, total int) int {
	workers := total - 1
	if machine == 0 || workers <= 0 {
		return 0
	}
	return 1 + ((machine-1)%workers+workers)%workers
}

// place resolves a machine index to its slot and owning node.
func (j *job) place(machine int) (slot int, owner *node) {
	j.mu.Lock()
	defer j.mu.Unlock()
	slot = j.wrapSlotLocked(machine)
	return slot, j.slotOwnerLocked(slot)
}

// slotSpeed returns the declared relative speed of a machine slot; the
// master's slot (and any slot outside the table) is the 1.0 reference.
func (j *job) slotSpeed(machine int) float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	slot := j.wrapSlotLocked(machine)
	if slot >= 0 && slot < len(j.speeds) {
		return j.speeds[slot]
	}
	return 1.0
}

// respawnSlot picks the machine slot a replacement task should be
// spawned on: among slots backed by a live process (the master's slot
// 0 plus every alive node's window), prefer one currently hosting no
// unfinished task — absorbed elastic spare capacity — else take the
// least-loaded, lowest index breaking ties. preferred is only a
// fallback for the impossible empty case (the master process itself is
// always alive).
func (j *job) respawnSlot(preferred int) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	live := make([]bool, j.totalSlots)
	if j.totalSlots > 0 {
		live[0] = true // the master process
	}
	for _, n := range j.nodes {
		if !n.alive {
			continue
		}
		for s := n.firstSlot; s < n.firstSlot+n.slots && s < j.totalSlots; s++ {
			live[s] = true
		}
	}
	load := make([]int, j.totalSlots)
	for id := range j.owners {
		o := &j.owners[id]
		if !o.done && o.slot >= 0 && o.slot < len(load) {
			load[o.slot]++
		}
	}
	best, bestLoad := -1, int(^uint(0)>>1)
	for s := 0; s < j.totalSlots; s++ {
		if live[s] && load[s] < bestLoad {
			best, bestLoad = s, load[s]
		}
	}
	if best < 0 {
		return preferred
	}
	return best
}

// absorb claims a late-joining worker for the running elastic job: its
// capacity is appended to the slot ring as spare capacity and the job
// frame is shipped so the node is ready to host tasks. It reports false
// when the job has already finished (or aborted), in which case the
// caller parks the node in the lobby as usual.
//
// Ordering matters: the ring must not grow until the worker's fJob
// frame is on the wire, or a concurrent spawn aimed at the new slot
// could reach the still-idle worker ahead of its job frame (a protocol
// violation that would drop the connection and abort the run). So the
// frame is staged from a snapshot, written, and only then committed —
// with concurrent absorptions serialized so two late joiners cannot
// stage the same slot window.
func (j *job) absorb(n *node) bool {
	j.absorbMu.Lock()
	defer j.absorbMu.Unlock()
	j.mu.Lock()
	if j.finished || j.aborted {
		j.mu.Unlock()
		return false
	}
	first := j.totalSlots
	total := first + n.capacity
	speeds := make([]float64, 0, total)
	speeds = append(speeds, j.speeds...)
	for s := 0; s < n.capacity; s++ {
		speeds = append(speeds, n.speed)
	}
	f := &frame{
		Type: fJob, Seed: j.opts.Seed, WorkScale: j.opts.RealWorkScale,
		Slot: first, Slots: n.capacity, TotalSlots: total,
		Speeds: speeds, Data: j.opts.JobPayload,
	}
	others := append([]*node(nil), j.nodes...)
	j.mu.Unlock()

	if err := n.c.write(f); err != nil {
		// The node never entered the ring; retire it quietly.
		j.nodeLost(n, err)
		return true
	}

	j.mu.Lock()
	n.firstSlot, n.slots = first, n.capacity
	j.totalSlots = total
	j.speeds = speeds
	j.nodes = append(j.nodes, n)
	j.mu.Unlock()
	// Announce the grown ring to the workers already hosting the job so
	// their machine-index wrapping and speed lookups stay consistent
	// with the master's.
	ring := &frame{Type: fRing, TotalSlots: total, Speeds: speeds}
	for _, o := range others {
		if !j.ownerAlive(o) {
			continue
		}
		if err := o.c.write(ring); err != nil {
			j.nodeLost(o, err)
		}
	}
	j.m.cfg.Logf("nettrans: worker %q absorbed into the running job (slots %d..%d, speed %.2f)",
		n.name, first, total-1, n.speed)
	return true
}

// errAborting reports that a spawn was refused because the run is
// already tearing down.
var errAborting = fmt.Errorf("nettrans: run aborting")

// spawn allocates a TaskID and places the task: in this process when
// its slot is the master's, else on the owning worker, which rebuilds
// it from spec.Kind and spec.Data. A non-portable spec aimed at a
// worker slot is a programming error and panics; an aborting run
// returns errAborting.
func (j *job) spawn(fullName string, machine int, spec pvm.Spec) (pvm.TaskID, error) {
	slot, owner := j.place(machine)
	if owner != nil && spec.Kind == "" {
		panic(fmt.Sprintf("nettrans: task %q is not portable (no spec kind) but machine %d belongs to worker %q",
			fullName, machine, owner.name))
	}

	j.mu.Lock()
	if j.aborted {
		j.mu.Unlock()
		return 0, errAborting
	}
	if owner != nil && !owner.alive {
		// The slot's node died (tolerated) before this spawn: there is no
		// process to host the task, and silently dropping it would hang
		// the protocol — fail the run instead.
		j.mu.Unlock()
		err := fmt.Errorf("nettrans: spawn %q: worker %q is gone", fullName, owner.name)
		j.abort(err)
		return 0, err
	}
	id := pvm.TaskID(len(j.owners))
	var t *mTask
	if owner == nil {
		fn := spec.Fn
		if fn == nil {
			// A spec-only spawn landing on the master's slot (its own
			// task issued no closure, or a worker's request was forwarded
			// here): rebuild the body like a worker would.
			var err error
			fn, err = j.buildTask(spec.Kind, spec.Data)
			if err != nil {
				j.mu.Unlock()
				j.abort(err)
				return 0, err
			}
		}
		t = &mTask{j: j, id: id, name: fullName, machine: slot, fn: fn,
			r: rng.NewChild(j.opts.Seed, "pvm.task", fullName)}
		t.box.init()
		j.local[id] = t
		j.localLive++
	} else {
		j.remoteLive++
	}
	j.owners = append(j.owners, taskOwner{node: owner, slot: slot})
	j.spawns++
	j.mu.Unlock()

	if owner == nil {
		go t.run()
		return id, nil
	}
	err := owner.c.write(&frame{
		Type: fSpawn, Task: id, Name: fullName, Machine: slot,
		Kind: spec.Kind, Data: spec.Data,
	})
	if err != nil {
		j.nodeLost(owner, err)
	}
	return id, nil
}

// buildTask rebuilds a portable task body via the program's Spawner,
// from the spec data of a local spawn or of a forwarded request.
// Callers hold j.mu.
func (j *job) buildTask(kind string, data any) (pvm.TaskFunc, error) {
	if j.opts.Spawner == nil {
		return nil, fmt.Errorf("nettrans: no Spawner configured, cannot host remote-spawned task kind %q", kind)
	}
	return j.opts.Spawner(kind, data)
}

// send routes one message from a master-local task.
func (j *job) send(from, to pvm.TaskID, tag pvm.Tag, data any) {
	j.mu.Lock()
	j.localSends++
	if int(to) < 0 || int(to) >= len(j.owners) {
		j.mu.Unlock()
		panic(fmt.Sprintf("pvm: send to unknown task %d", to))
	}
	owner := j.owners[to]
	var dst *mTask
	if owner.node == nil {
		dst = j.local[to]
	}
	j.mu.Unlock()

	if dst != nil {
		dst.box.deliver(pvm.Message{From: from, Tag: tag, Data: data})
		return
	}
	if owner.node == nil || owner.done {
		return // task of a lost worker: the run is aborting anyway
	}
	if err := owner.node.c.write(&frame{Type: fMsg, From: from, To: to, Tag: tag, Data: data}); err != nil {
		j.nodeLost(owner.node, err)
	}
}

// route delivers a message frame arriving from a worker to a task in
// this process, or relays it: the decoded frame is written to the
// destination's connection, whose encoder re-encodes the data.
func (j *job) route(src *node, f *frame) {
	j.mu.Lock()
	j.routed++
	if int(f.To) < 0 || int(f.To) >= len(j.owners) {
		j.mu.Unlock()
		j.abortFrom(src, fmt.Errorf("message to unknown task %d", f.To))
		return
	}
	owner := j.owners[f.To]
	var dst *mTask
	if owner.node == nil {
		dst = j.local[f.To]
	}
	j.mu.Unlock()

	if dst != nil {
		dst.box.deliver(pvm.Message{From: f.From, Tag: f.Tag, Data: f.Data})
		return
	}
	if owner.node == nil || !j.ownerAlive(owner.node) {
		return
	}
	if err := owner.node.c.write(f); err != nil {
		j.nodeLost(owner.node, err)
	}
}

func (j *job) ownerAlive(n *node) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return n.alive
}

// handleFrame services one frame from a claimed worker; false stops
// the connection's read loop.
func (j *job) handleFrame(n *node, f *frame) bool {
	switch f.Type {
	case fSpawnReq:
		if f.Kind == "" {
			// Workers only forward portable specs; a kindless request
			// could not be placed anywhere.
			j.abortFrom(n, fmt.Errorf("spawn request %q without a task kind", f.Name))
			return true
		}
		id, err := j.spawn(f.Name, f.Machine, pvm.Spec{Kind: f.Kind, Data: f.Data})
		if err != nil {
			// The run is aborting; the requester unwinds via fAbort.
			return true
		}
		if err := n.c.write(&frame{Type: fSpawnAck, Seq: f.Seq, Task: id}); err != nil {
			j.nodeLost(n, err)
			return false
		}
	case fSlotReq:
		if err := n.c.write(&frame{Type: fSlotAck, Seq: f.Seq, Machine: j.respawnSlot(f.Machine)}); err != nil {
			j.nodeLost(n, err)
			return false
		}
	case fMsg:
		j.route(n, f)
	case fNotify:
		j.addWatcher(f.Task, f.From)
	case fTaskDone:
		j.taskDone(f.Task)
	case fJobErr:
		j.abortFrom(n, fmt.Errorf("job refused: %s", f.Err))
	case fBye:
		j.mu.Lock()
		n.sends = f.Sends
		j.mu.Unlock()
		select {
		case <-n.bye:
		default:
			close(n.bye)
		}
	case fLeave:
		// A graceful drain mid-job is an orderly loss: the node's tasks
		// are written off through the same watcher machinery as a crash —
		// adaptive runs fold or respawn them, static runs abort — and the
		// worker deregisters cleanly.
		j.nodeLost(n, errDrained)
		return false
	default:
		j.abortFrom(n, fmt.Errorf("unexpected frame type %d", f.Type))
	}
	return true
}

// taskDone marks a remotely hosted task as finished.
func (j *job) taskDone(id pvm.TaskID) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if int(id) < 0 || int(id) >= len(j.owners) || j.owners[id].done {
		return
	}
	j.owners[id].done = true
	if j.owners[id].node != nil {
		j.remoteLive--
	}
	j.checkDoneLocked()
}

// localTaskDone marks a master-local task as finished.
func (j *job) localTaskDone(id pvm.TaskID) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.owners[id].done {
		return
	}
	j.owners[id].done = true
	j.localLive--
	j.checkDoneLocked()
}

func (j *job) checkDoneLocked() {
	if !j.finished && j.localLive == 0 && j.remoteLive == 0 {
		j.finished = true
		close(j.allDone)
	}
}

// cancel flips the cooperative-cancellation flag everywhere.
func (j *job) cancel() {
	j.mu.Lock()
	if j.cancelled {
		j.mu.Unlock()
		return
	}
	j.cancelled = true
	nodes := append([]*node(nil), j.nodes...)
	j.mu.Unlock()
	for _, n := range nodes {
		if j.ownerAlive(n) {
			n.c.write(&frame{Type: fCancel})
		}
	}
}

func (j *job) isCancelled() bool {
	select {
	case <-doneChanJob(j):
	default:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.cancelled || j.aborted
	}
	return true
}

func doneChanJob(j *job) <-chan struct{} { return doneChan(j.opts) }

// errDrained is the loss cause of a worker that deregistered
// gracefully (SIGTERM drain) while hosting tasks.
var errDrained = fmt.Errorf("worker drained (graceful deregistration)")

// nodeLost handles a worker dying or misbehaving mid-job. When every
// unfinished task the node hosted has a registered exit watcher, the
// loss is survivable: those tasks are written off, each watcher
// receives a pvm.TagExit notification, and the run continues on the
// survivors (graceful degradation — the program's scheduler folds the
// dead node's work back in). A node hosting any unwatched task still
// aborts the whole run, the pre-elastic behavior. After the run
// finished, a dropped connection is just the natural end of the
// session — the node is retired without aborting anything.
func (j *job) nodeLost(n *node, cause error) {
	j.mu.Lock()
	if !n.alive {
		j.mu.Unlock()
		return
	}
	n.alive = false
	finished := j.finished || j.aborted
	var lost []pvm.TaskID
	tolerable := true
	if !finished {
		for id := range j.owners {
			o := &j.owners[id]
			if o.node == n && !o.done {
				lost = append(lost, pvm.TaskID(id))
				if len(j.watchers[pvm.TaskID(id)]) == 0 {
					tolerable = false
				}
			}
		}
	}
	type exit struct {
		dead    pvm.TaskID
		watcher pvm.TaskID
		local   *mTask
		remote  *node
	}
	var exits []exit
	if !finished && tolerable {
		for _, id := range lost {
			j.owners[id].done = true
			j.owners[id].lost = true
			j.remoteLive--
			for _, w := range j.watchers[id] {
				if int(w) >= len(j.owners) {
					continue
				}
				e := exit{dead: id, watcher: w}
				if wo := j.owners[w]; wo.node == nil {
					if e.local = j.local[w]; e.local == nil {
						continue // local watcher already finished
					}
				} else if wo.node.alive && !wo.done {
					e.remote = wo.node
				} else {
					continue // the watcher is gone too
				}
				exits = append(exits, e)
			}
		}
		j.checkDoneLocked()
	}
	j.mu.Unlock()
	n.c.close()
	j.m.retire(n)
	if finished {
		return
	}
	if tolerable {
		j.m.cfg.Logf("nettrans: worker %q lost with %d watched task(s), run continues: %v",
			n.name, len(lost), cause)
		for _, e := range exits {
			if e.local != nil {
				e.local.box.deliver(pvm.Message{From: e.dead, Tag: pvm.TagExit})
				continue
			}
			f := &frame{Type: fMsg, From: e.dead, To: e.watcher, Tag: pvm.TagExit}
			if err := e.remote.c.write(f); err != nil {
				j.nodeLost(e.remote, err)
			}
		}
		return
	}
	j.m.cfg.Logf("nettrans: worker %q lost: %v", n.name, cause)
	j.abort(fmt.Errorf("worker %q lost: %v", n.name, cause))
}

// addWatcher registers watcher for a TagExit notification on watched.
// Like PVM's pvm_notify, a watch on a task that was already written
// off with its dying node is answered immediately: a task can die
// between its spawn and the watch its parent registers, and that loss
// must still be noticed.
func (j *job) addWatcher(watched, watcher pvm.TaskID) {
	j.mu.Lock()
	already := int(watched) >= 0 && int(watched) < len(j.owners) && j.owners[watched].lost
	if !already {
		j.watchers[watched] = append(j.watchers[watched], watcher)
		j.mu.Unlock()
		return
	}
	var local *mTask
	var remote *node
	if int(watcher) < len(j.owners) {
		if wo := j.owners[watcher]; wo.node == nil {
			local = j.local[watcher]
		} else if wo.node.alive && !wo.done {
			remote = wo.node
		}
	}
	j.mu.Unlock()
	if local != nil {
		local.box.deliver(pvm.Message{From: watched, Tag: pvm.TagExit})
		return
	}
	if remote != nil {
		f := &frame{Type: fMsg, From: watched, To: watcher, Tag: pvm.TagExit}
		if err := remote.c.write(f); err != nil {
			j.nodeLost(remote, err)
		}
	}
}

// abortFrom retires a misbehaving worker (protocol violation, job
// refusal) and aborts the run unconditionally: unlike a connection
// loss, misbehavior is never survivable — the node may have corrupted
// state the watcher protocol cannot reason about.
func (j *job) abortFrom(n *node, cause error) {
	j.mu.Lock()
	wasAlive := n.alive
	n.alive = false
	finished := j.finished || j.aborted
	j.mu.Unlock()
	if wasAlive {
		n.c.close()
		j.m.retire(n)
	}
	if finished {
		return
	}
	j.m.cfg.Logf("nettrans: worker %q: %v", n.name, cause)
	j.abort(fmt.Errorf("worker %q: %v", n.name, cause))
}

// abort tears the run down: every remote task is written off, every
// blocked local task unwinds, surviving workers are told to do the
// same. The master's best-so-far state accumulated before the abort
// stays intact, so the program can still report it.
func (j *job) abort(cause error) {
	j.mu.Lock()
	if j.aborted {
		j.mu.Unlock()
		return
	}
	j.aborted = true
	j.abortErr = cause
	for i := range j.owners {
		if j.owners[i].node != nil && !j.owners[i].done {
			j.owners[i].done = true
			j.remoteLive--
		}
	}
	var wake []*mTask
	for _, t := range j.local {
		wake = append(wake, t)
	}
	nodes := append([]*node(nil), j.nodes...)
	j.checkDoneLocked()
	j.mu.Unlock()

	for _, n := range nodes {
		if j.ownerAlive(n) {
			n.c.write(&frame{Type: fAbort})
		}
	}
	for _, t := range wake {
		t.box.wake()
	}
}

func (j *job) isAborted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.aborted
}

// collectByes gathers per-worker send counters after a clean drain.
func (j *job) collectByes() {
	for _, n := range j.nodeList() {
		if !j.ownerAlive(n) {
			continue
		}
		if err := n.c.write(&frame{Type: fEndJob}); err != nil {
			j.nodeLost(n, err)
		}
	}
	j.awaitByes(j.m.cfg.ByeWait)
}

// awaitByes waits up to d for the counter reports of workers that are
// still reachable; whatever fails to arrive is simply not counted.
func (j *job) awaitByes(d time.Duration) {
	timeout := time.After(d)
	for _, n := range j.nodeList() {
		if !j.ownerAlive(n) {
			continue
		}
		select {
		case <-n.bye:
		case <-timeout:
			return
		}
	}
}

// mTask is a task hosted in the master process.
type mTask struct {
	j       *job
	id      pvm.TaskID
	name    string
	machine int
	fn      pvm.TaskFunc
	r       *rng.SplitMix64
	box     mailbox
}

var _ pvm.Env = (*mTask)(nil)

func (t *mTask) run() {
	pvm.RunTask(t, t.fn)
	t.j.localTaskDone(t.id)
}

func (t *mTask) Self() pvm.TaskID      { return t.id }
func (t *mTask) Name() string          { return t.name }
func (t *mTask) MachineIndex() int     { return t.machine }
func (t *mTask) Rand() *rng.SplitMix64 { return t.r }
func (t *mTask) Now() float64          { return time.Since(t.j.start).Seconds() }
func (t *mTask) Cancelled() bool       { return t.j.isCancelled() }

// NotifyExit implements pvm.ExitNotifier against the job's watcher
// registry.
func (t *mTask) NotifyExit(id pvm.TaskID) { t.j.addWatcher(id, t.id) }

// MachineSpeed implements pvm.SpeedReporter from the registry's
// declared node speeds.
func (t *mTask) MachineSpeed(machine int) float64 { return t.j.slotSpeed(machine) }

// RespawnSlot implements pvm.RespawnPlacer: spare absorbed capacity
// first, else the least-loaded surviving node.
func (t *mTask) RespawnSlot(preferred int) int { return t.j.respawnSlot(preferred) }

// AbortRun implements pvm.RunAborter: the program declared a loss
// unrecoverable, so tear the run down like a fatal transport failure.
func (t *mTask) AbortRun(cause error) { t.j.abort(cause) }

func (t *mTask) Spawn(name string, machine int, fn pvm.TaskFunc) pvm.TaskID {
	return t.SpawnSpec(name, machine, pvm.Spec{Fn: fn})
}

func (t *mTask) SpawnSpec(name string, machine int, spec pvm.Spec) pvm.TaskID {
	id, err := t.j.spawn(t.name+"/"+name, machine, spec)
	if err != nil {
		pvm.AbortTask()
	}
	return id
}

func (t *mTask) Send(to pvm.TaskID, tag pvm.Tag, data any) {
	t.j.send(t.id, to, tag, data)
}

func (t *mTask) Recv(tags ...pvm.Tag) pvm.Message {
	return t.box.recv(t.j.isAborted, tags)
}

func (t *mTask) TryRecv(tags ...pvm.Tag) (pvm.Message, bool) {
	return t.box.tryRecv(tags)
}

func (t *mTask) Work(seconds float64) {
	scale := t.j.opts.RealWorkScale
	if seconds <= 0 || scale <= 0 {
		return
	}
	// The master's slot is the reference speed-1.0 machine.
	time.Sleep(time.Duration(seconds * scale * float64(time.Second)))
}
