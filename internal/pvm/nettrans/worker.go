package nettrans

import (
	"context"
	"errors"
	"fmt"
	randv2 "math/rand/v2"
	"net"
	"sync"
	"syscall"
	"time"

	"pts/internal/pvm"
	"pts/internal/rng"
)

// TaskFactory rebuilds a portable task body from its spec kind and
// decoded data — the worker-process counterpart of pvm.Options.Spawner,
// and the same type.
type TaskFactory = pvm.TaskFactory

// Handler is the program side of a worker process: nettrans moves the
// frames, the Handler supplies what the frames mean.
type Handler interface {
	// Start is called when the master opens a job, with the decoded
	// program payload. It validates that this process is prepared for
	// the job (e.g. that its locally constructed problem matches the
	// master's fingerprint) and returns the factory that builds the
	// bodies of tasks placed here. A non-nil error refuses the job and
	// aborts the master's run.
	Start(payload any) (TaskFactory, error)
	// Done is called when the job closed cleanly, with the master's
	// final summary (nil when the master finished without one).
	Done(summary any)
}

// WorkerConfig configures one worker daemon.
type WorkerConfig struct {
	// Addr is the master's TCP address.
	Addr string
	// Name identifies this worker in the master registry; it must be
	// unique across the cluster (default "<hostname>:<pid>" chosen by
	// the caller — nettrans refuses an empty name).
	Name string
	// Speed is the node's relative compute speed recorded in the
	// registry, the heterogeneity knob matching the in-process cluster
	// model's machine speed factors (default 1.0).
	Speed float64
	// Capacity is how many machine slots this node contributes — how
	// many of the run's round-robin task placements land here per cycle
	// (default 1).
	Capacity int
	// Jobs bounds how many jobs to serve before returning (0 = serve
	// until the context is cancelled).
	Jobs int
	// MaxBackoff caps the reconnect backoff (default 5s; dialing starts
	// at 100ms and doubles per failure, with ±50% jitter so a fleet of
	// daemons does not retry a restarted master in lockstep).
	MaxBackoff time.Duration
	// Drain, when non-nil, requests a graceful shutdown when it becomes
	// readable (typically a closed channel or a context's Done): the
	// worker deregisters from the master with an fLeave frame instead of
	// dropping the connection — an idle worker leaves the registry
	// quietly; one hosting tasks has them written off deliberately
	// through the master's exit-watch (pvm.TagExit) machinery — and
	// RunWorker returns nil without reconnecting.
	Drain <-chan struct{}
	// Logf, when non-nil, receives one line per connection event.
	Logf func(format string, args ...any)
}

// ErrJoinRefused is wrapped by RunWorker errors when the master
// explicitly refused the registration (duplicate name, closed master) —
// retrying would refuse again, so the daemon stops instead of backing
// off.
var ErrJoinRefused = errors.New("nettrans: join refused")

// RunWorker runs a worker daemon: dial the master (reconnecting with
// exponential backoff while it is unreachable), register, then host
// this node's share of tasks for each job the master starts. It
// returns once cfg.Jobs jobs ended — nil when the last ended cleanly,
// its error when it aborted or was refused — or ctx.Err() once the
// context is cancelled, or the refusal error if the master rejects the
// registration.
func RunWorker(ctx context.Context, cfg WorkerConfig, h Handler) error {
	if cfg.Name == "" {
		return fmt.Errorf("nettrans: worker needs a name")
	}
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	served := 0
	everJoined := false
	backoff := 100 * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-cfg.Drain:
			// Drained while disconnected: there is nothing to deregister.
			cfg.Logf("nettrans: worker %q drained", cfg.Name)
			return nil
		default:
		}
		c, err := dialJoin(ctx, cfg)
		if err != nil {
			if errors.Is(err, ErrJoinRefused) || ctx.Err() != nil {
				return err
			}
			// A bounded worker that once reached its master and now finds
			// nobody listening is waiting for a job that cannot come (a
			// restarted master would be listening again); only unbounded
			// daemons keep waiting for the address to come back to life.
			if cfg.Jobs > 0 && everJoined && errors.Is(err, syscall.ECONNREFUSED) {
				return fmt.Errorf("nettrans: master %s is gone before the job ended: %w", cfg.Addr, err)
			}
			// Jittered backoff, uniform in [backoff/2, backoff*1.5): after
			// a master restart the whole fleet holds the same schedule, and
			// without jitter every daemon would hammer the new master in
			// lockstep.
			sleep := backoff/2 + time.Duration(randv2.Int64N(int64(backoff)))
			cfg.Logf("nettrans: worker %q: %v (retrying in %v)", cfg.Name, err, sleep)
			select {
			case <-time.After(sleep):
			case <-cfg.Drain:
				cfg.Logf("nettrans: worker %q drained", cfg.Name)
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
			if backoff *= 2; backoff > cfg.MaxBackoff {
				backoff = cfg.MaxBackoff
			}
			continue
		}
		backoff = 100 * time.Millisecond
		everJoined = true
		cfg.Logf("nettrans: worker %q joined %s", cfg.Name, cfg.Addr)
		// The session blocks in reads; honoring cancellation means
		// closing the connection out from under them. A drain request is
		// gentler: announce the departure with fLeave and let the master
		// retire this node and close the connection.
		stop := context.AfterFunc(ctx, func() { c.close() })
		stopDrain := make(chan struct{})
		if cfg.Drain != nil {
			go func() {
				select {
				case <-cfg.Drain:
					cfg.Logf("nettrans: worker %q draining, deregistering from %s", cfg.Name, cfg.Addr)
					c.write(&frame{Type: fLeave}) //nolint:errcheck // a broken conn retires us anyway
				case <-stopDrain:
				}
			}()
		}
		n, err := serveSession(ctx, cfg, c, h)
		stop()
		close(stopDrain)
		served += n
		select {
		case <-cfg.Drain:
			cfg.Logf("nettrans: worker %q drained after %d job(s)", cfg.Name, served)
			return nil
		default:
		}
		if cfg.Jobs > 0 && served >= cfg.Jobs {
			// The budget is met by ended jobs; err reports whether the
			// last one finished cleanly or aborted under us.
			return err
		}
		if err != nil && ctx.Err() == nil {
			cfg.Logf("nettrans: worker %q session ended: %v", cfg.Name, err)
		}
	}
}

// dialJoin connects and registers, distinguishing refusals (terminal)
// from unreachability (retried).
func dialJoin(ctx context.Context, cfg WorkerConfig) (*conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	c := newConn(nc)
	if err := c.write(&frame{Type: fJoin, Worker: cfg.Name, Speed: cfg.Speed, Capacity: cfg.Capacity}); err != nil {
		c.close()
		return nil, err
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	ack, err := c.read()
	if err != nil {
		c.close()
		return nil, err
	}
	nc.SetReadDeadline(time.Time{})
	if ack.Type != fJoinAck {
		c.close()
		return nil, fmt.Errorf("nettrans: unexpected %d frame instead of join ack", ack.Type)
	}
	if ack.Err != "" {
		c.close()
		return nil, fmt.Errorf("%w: %s", ErrJoinRefused, ack.Err)
	}
	return c, nil
}

// serveSession hosts jobs over one registered connection until it
// drops, returning how many jobs ended — cleanly or not. A job that
// aborted still counts as ended: it is over for good (the master never
// replays it), so a daemon bounded to Jobs jobs must not wait for a
// replacement that cannot come.
func serveSession(ctx context.Context, cfg WorkerConfig, c *conn, h Handler) (int, error) {
	defer c.close()
	ended := 0
	for {
		f, err := c.read()
		if err != nil {
			return ended, err
		}
		if f.Type != fJob {
			return ended, fmt.Errorf("nettrans: unexpected %d frame while idle", f.Type)
		}
		err = serveJob(ctx, cfg, c, h, f)
		ended++
		if cfg.Jobs > 0 && ended >= cfg.Jobs {
			return ended, err
		}
		if err != nil {
			return ended, err
		}
	}
}

// wjob is one job being hosted on this worker.
type wjob struct {
	c       *conn
	factory TaskFactory
	seed    uint64
	scale   float64
	speed   float64
	slots   int       // the run's slot-ring size (grows with fRing updates); under mu
	speeds  []float64 // slot-indexed declared speeds; under mu
	start   time.Time
	ctx     context.Context

	mu        sync.Mutex
	local     map[pvm.TaskID]*wTask
	live      int
	sends     int64
	seq       uint64
	replies   map[uint64]chan *frame // outstanding requests to the master, by Seq
	aborted   bool
	cancelled bool
	idle      *sync.Cond // signalled when live drops to 0
}

// serveJob hosts one job until it ends: nil means the master's final
// result was delivered; any error means the job died under us (abort,
// refusal, or a broken connection).
func serveJob(ctx context.Context, cfg WorkerConfig, c *conn, h Handler, f *frame) error {
	factory, err := h.Start(f.Data)
	if err != nil {
		c.write(&frame{Type: fJobErr, Err: err.Error()})
		return fmt.Errorf("nettrans: job refused: %w", err)
	}
	j := &wjob{
		c: c, factory: factory,
		seed: f.Seed, scale: f.WorkScale, speed: cfg.Speed,
		slots: f.TotalSlots, speeds: f.Speeds,
		start: time.Now(), ctx: ctx,
		local:   make(map[pvm.TaskID]*wTask),
		replies: make(map[uint64]chan *frame),
	}
	j.idle = sync.NewCond(&j.mu)

	for {
		f, err := c.read()
		if err != nil {
			j.abort()
			j.waitIdle()
			return err
		}
		switch f.Type {
		case fSpawn:
			if err := j.host(f); err != nil {
				j.abort()
				j.waitIdle()
				c.write(&frame{Type: fJobErr, Err: err.Error()})
				return err
			}
		case fSpawnAck, fSlotAck:
			j.mu.Lock()
			if ch, ok := j.replies[f.Seq]; ok {
				delete(j.replies, f.Seq)
				ch <- f
			}
			j.mu.Unlock()
		case fMsg:
			if err := j.deliver(f); err != nil {
				j.abort()
				j.waitIdle()
				c.write(&frame{Type: fJobErr, Err: err.Error()})
				return err
			}
		case fRing:
			// Elastic ring growth: adopt the master's new slot table so
			// machine-index wrapping and speed lookups stay consistent
			// with where the master actually places tasks.
			j.mu.Lock()
			if f.TotalSlots > j.slots {
				j.slots = f.TotalSlots
				j.speeds = f.Speeds
			}
			j.mu.Unlock()
		case fCancel:
			j.mu.Lock()
			j.cancelled = true
			j.mu.Unlock()
		case fAbort:
			j.abort()
			j.waitIdle()
			// Best-effort counter report so the master's interrupted
			// result still accounts for this node's sends.
			j.mu.Lock()
			sends := j.sends
			j.mu.Unlock()
			c.write(&frame{Type: fBye, Sends: sends})
			return fmt.Errorf("nettrans: job aborted by master")
		case fEndJob:
			j.waitIdle()
			j.mu.Lock()
			sends := j.sends
			j.mu.Unlock()
			if err := c.write(&frame{Type: fBye, Sends: sends}); err != nil {
				return err
			}
		case fResult:
			h.Done(f.Data)
			return nil
		default:
			j.abort()
			j.waitIdle()
			return fmt.Errorf("nettrans: unexpected frame type %d mid-job", f.Type)
		}
	}
}

// host starts one task assigned to this node.
func (j *wjob) host(f *frame) error {
	fn, err := j.factory(f.Kind, f.Data)
	if err != nil {
		return fmt.Errorf("nettrans: build task %q (kind %q): %w", f.Name, f.Kind, err)
	}
	t := &wTask{j: j, id: f.Task, name: f.Name, machine: f.Machine, fn: fn,
		r: rng.NewChild(j.seed, "pvm.task", f.Name)}
	t.box.init()
	j.mu.Lock()
	j.local[f.Task] = t
	j.live++
	j.mu.Unlock()
	go t.run()
	return nil
}

// deliver routes an incoming message to its local task.
func (j *wjob) deliver(f *frame) error {
	j.mu.Lock()
	t := j.local[f.To]
	j.mu.Unlock()
	if t == nil {
		return fmt.Errorf("nettrans: message for task %d not hosted here", f.To)
	}
	t.box.deliver(pvm.Message{From: f.From, Tag: f.Tag, Data: f.Data})
	return nil
}

// abort unwinds every hosted task that is still blocked.
func (j *wjob) abort() {
	j.mu.Lock()
	if j.aborted {
		j.mu.Unlock()
		return
	}
	j.aborted = true
	var wake []*wTask
	for _, t := range j.local {
		wake = append(wake, t)
	}
	acks := j.replies
	j.replies = make(map[uint64]chan *frame)
	j.mu.Unlock()
	for _, ch := range acks {
		close(ch)
	}
	for _, t := range wake {
		t.box.wake()
	}
}

// waitIdle blocks until every hosted task has finished (they unwind
// promptly after abort, or drain normally otherwise).
func (j *wjob) waitIdle() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.live > 0 {
		j.idle.Wait()
	}
}

func (j *wjob) isAborted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.aborted
}

func (j *wjob) isCancelled() bool {
	if j.ctx != nil && j.ctx.Err() != nil {
		return true
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled || j.aborted
}

// wTask is a task hosted on this worker.
type wTask struct {
	j       *wjob
	id      pvm.TaskID
	name    string
	machine int
	fn      pvm.TaskFunc
	r       *rng.SplitMix64
	box     mailbox
}

var _ pvm.Env = (*wTask)(nil)

func (t *wTask) run() {
	pvm.RunTask(t, t.fn)
	j := t.j
	j.mu.Lock()
	j.live--
	aborted := j.aborted
	if j.live == 0 {
		j.idle.Broadcast()
	}
	j.mu.Unlock()
	if !aborted {
		j.c.write(&frame{Type: fTaskDone, Task: t.id})
	}
}

func (t *wTask) Self() pvm.TaskID      { return t.id }
func (t *wTask) Name() string          { return t.name }
func (t *wTask) MachineIndex() int     { return t.machine }
func (t *wTask) Rand() *rng.SplitMix64 { return t.r }
func (t *wTask) Now() float64          { return time.Since(t.j.start).Seconds() }
func (t *wTask) Cancelled() bool       { return t.j.isCancelled() }

// MachineSpeed implements pvm.SpeedReporter from the job's slot-speed
// table (kept in sync with elastic ring growth via fRing frames);
// anything outside the table reports the 1.0 reference.
func (t *wTask) MachineSpeed(machine int) float64 {
	t.j.mu.Lock()
	slots, speeds := t.j.slots, t.j.speeds
	t.j.mu.Unlock()
	if slots <= 0 {
		return 1.0
	}
	slot := ringSlot(machine, slots)
	if slot < len(speeds) && speeds[slot] > 0 {
		return speeds[slot]
	}
	return 1.0
}

// NotifyExit implements pvm.ExitNotifier: the watch is registered in
// the master's registry, which owns liveness.
func (t *wTask) NotifyExit(id pvm.TaskID) {
	if err := t.j.c.write(&frame{Type: fNotify, Task: id, From: t.id}); err != nil {
		pvm.AbortTask() // connection gone: the session is tearing down
	}
}

func (t *wTask) Spawn(name string, machine int, fn pvm.TaskFunc) pvm.TaskID {
	panic(fmt.Sprintf("nettrans: task %q used Spawn on a worker node; distributed programs must use SpawnSpec", t.name))
}

// SpawnSpec asks the master to allocate and place the task, blocking on
// the round-trip (spawns happen during protocol setup, never in the hot
// loop).
func (t *wTask) SpawnSpec(name string, machine int, spec pvm.Spec) pvm.TaskID {
	if spec.Kind == "" {
		panic(fmt.Sprintf("nettrans: task %q spawned a non-portable task %q from a worker node", t.name, name))
	}
	return t.j.request(&frame{
		Type: fSpawnReq, Name: t.name + "/" + name,
		Machine: machine, Kind: spec.Kind, Data: spec.Data,
	}).Task
}

// RespawnSlot implements pvm.RespawnPlacer by asking the master, which
// owns node liveness, blocking on the round-trip like SpawnSpec.
func (t *wTask) RespawnSlot(preferred int) int {
	return t.j.request(&frame{Type: fSlotReq, Machine: preferred}).Machine
}

// request sends f to the master under a fresh Seq and returns the
// master's reply. A run aborting or a broken connection unwinds the
// calling task instead.
func (j *wjob) request(f *frame) *frame {
	ch := make(chan *frame, 1)
	j.mu.Lock()
	if j.aborted {
		j.mu.Unlock()
		pvm.AbortTask()
	}
	j.seq++
	f.Seq = j.seq
	j.replies[f.Seq] = ch
	j.mu.Unlock()
	if err := j.c.write(f); err != nil {
		pvm.AbortTask() // connection gone: the session is tearing down
	}
	reply, ok := <-ch
	if !ok {
		pvm.AbortTask()
	}
	return reply
}

func (t *wTask) Send(to pvm.TaskID, tag pvm.Tag, data any) {
	j := t.j
	j.mu.Lock()
	j.sends++
	dst := j.local[to]
	j.mu.Unlock()
	if dst != nil {
		dst.box.deliver(pvm.Message{From: t.id, Tag: tag, Data: data})
		return
	}
	if err := j.c.write(&frame{Type: fMsg, From: t.id, To: to, Tag: tag, Data: data}); err != nil {
		pvm.AbortTask()
	}
}

func (t *wTask) Recv(tags ...pvm.Tag) pvm.Message {
	return t.box.recv(t.j.isAborted, tags)
}

func (t *wTask) TryRecv(tags ...pvm.Tag) (pvm.Message, bool) {
	return t.box.tryRecv(tags)
}

// Work emulates the node's speed exactly like the in-process transport:
// sleep seconds*scale/speed.
func (t *wTask) Work(seconds float64) {
	if seconds <= 0 || t.j.scale <= 0 {
		return
	}
	time.Sleep(time.Duration(seconds * t.j.scale / t.j.speed * float64(time.Second)))
}
