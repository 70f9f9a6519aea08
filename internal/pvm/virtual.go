package pvm

import (
	"fmt"

	"pts/internal/cluster"
	"pts/internal/rng"
	"pts/internal/vtime"
)

// vRuntime is the deterministic virtual-time runtime.
type vRuntime struct {
	k       *vtime.Kernel
	c       cluster.Cluster
	seed    uint64
	spawner TaskFactory
	done    <-chan struct{}
	task    []*vTask
	spawns  int64
	sends   int64
	// free holds delivery records whose message has arrived, for reuse
	// by later sends.
	free []*delivery
}

// delivery is one message in flight to a task. Its fire method value is
// bound once when the record is made, so scheduling a reused record's
// arrival allocates nothing.
type delivery struct {
	rt   *vRuntime
	dst  *vTask
	msg  Message
	fire func()
}

// newDelivery returns a free record, or a new one if none is free.
func (rt *vRuntime) newDelivery() *delivery {
	if n := len(rt.free); n > 0 {
		d := rt.free[n-1]
		rt.free = rt.free[:n-1]
		return d
	}
	d := &delivery{rt: rt}
	d.fire = d.arrive
	return d
}

// arrive runs at the message's arrival time: it appends the message to
// the destination's inbox, wakes the destination if it waits in Recv,
// and frees the record.
func (d *delivery) arrive() {
	dst, rt := d.dst, d.rt
	dst.inbox = append(dst.inbox, d.msg)
	if dst.waiting {
		rt.k.Wake(dst.proc)
	}
	*d = delivery{rt: rt, fire: d.fire}
	rt.free = append(rt.free, d)
}

// vTask is one virtual task.
type vTask struct {
	rt       *vRuntime
	id       TaskID
	name     string
	machine  int
	m        *cluster.Machine // rt.c.Machines[machine], resolved at spawn
	proc     *vtime.Proc
	inbox    []Message
	waiting  bool
	finished bool
	r        *rng.SplitMix64
	// lastTo tracks, per destination TaskID, the latest scheduled
	// arrival of a message this task sent there: PVM (like TCP)
	// guarantees messages between two tasks arrive in the order sent,
	// so a later small message must not overtake an earlier big one. It
	// grows to cover the highest destination sent to.
	lastTo []vtime.Time
}

var _ Env = (*vTask)(nil)

func (t *vTask) Self() TaskID          { return t.id }
func (t *vTask) Name() string          { return t.name }
func (t *vTask) MachineIndex() int     { return t.machine }
func (t *vTask) Rand() *rng.SplitMix64 { return t.r }
func (t *vTask) Now() float64          { return float64(t.rt.k.Now()) }
func (t *vTask) Cancelled() bool       { return cancelled(t.rt.done) }

// MachineSpeed implements SpeedReporter from the cluster model, whose
// Machine wraps the index exactly like spawn does.
func (t *vTask) MachineSpeed(machine int) float64 {
	return t.rt.c.Machine(machine).Speed
}

func (t *vTask) Spawn(name string, machine int, fn TaskFunc) TaskID {
	return t.rt.spawn(t.name+"/"+name, machine, fn)
}

func (t *vTask) SpawnSpec(name string, machine int, spec Spec) TaskID {
	return t.Spawn(name, machine, resolveSpec(t.rt.spawner, t.name+"/"+name, spec))
}

func (rt *vRuntime) spawn(fullName string, machine int, fn TaskFunc) TaskID {
	rt.spawns++
	machine = ((machine % len(rt.c.Machines)) + len(rt.c.Machines)) % len(rt.c.Machines)
	child := &vTask{
		rt:      rt,
		id:      TaskID(len(rt.task)),
		name:    fullName,
		machine: machine,
		m:       &rt.c.Machines[machine],
		r:       rng.NewChild(rt.seed, "pvm.task", fullName),
	}
	rt.task = append(rt.task, child)
	child.proc = rt.k.Spawn(fullName, func(*vtime.Proc) {
		fn(child)
		child.finished = true
	})
	return child.id
}

func (t *vTask) Send(to TaskID, tag Tag, data any) {
	rt := t.rt
	rt.sends++
	if int(to) < 0 || int(to) >= len(rt.task) {
		panic(fmt.Sprintf("pvm: send to unknown task %d from %q", to, t.name))
	}
	dst := rt.task[to]
	items := payloadItems(data)
	delay := rt.c.MsgDelay(items)
	if dst.machine == t.machine {
		// Same machine: no LAN traversal, just software overhead plus the
		// memory copy.
		delay = rt.c.SendLatency/4 + rt.c.PerItem*float64(items)
	}
	// Per-pair FIFO: never schedule an arrival before an earlier message
	// to the same destination.
	arrival := rt.k.Now() + vtime.Time(delay)
	if int(to) >= len(t.lastTo) {
		t.lastTo = append(t.lastTo, make([]vtime.Time, int(to)+1-len(t.lastTo))...)
	}
	if prev := t.lastTo[to]; arrival < prev {
		arrival = prev
	}
	t.lastTo[to] = arrival
	d := rt.newDelivery()
	d.dst = dst
	d.msg = Message{From: t.id, Tag: tag, Data: data}
	rt.k.After(arrival-rt.k.Now(), d.fire)
}

func (t *vTask) Recv(tags ...Tag) Message {
	for {
		if m, ok := scanInbox(&t.inbox, tags); ok {
			return m
		}
		t.waiting = true
		t.proc.Suspend()
		t.waiting = false
	}
}

func (t *vTask) TryRecv(tags ...Tag) (Message, bool) {
	return scanInbox(&t.inbox, tags)
}

func (t *vTask) Work(seconds float64) {
	if seconds <= 0 {
		return
	}
	d := t.m.WorkDuration(float64(t.rt.k.Now()), seconds)
	t.proc.Sleep(vtime.Time(d))
}

// RunVirtual executes root (and everything it spawns) on the
// discrete-event kernel and returns the virtual make-span in seconds.
// It returns an error if the cluster is invalid, the event limit was
// hit, or tasks were still blocked when the event queue drained (a
// protocol bug in the task code).
func RunVirtual(opts Options, root TaskFunc) (elapsed float64, err error) {
	opts = opts.withDefaults()
	if err := opts.Cluster.Validate(); err != nil {
		return 0, err
	}
	rt := &vRuntime{
		k:       vtime.NewKernel(),
		c:       opts.Cluster,
		seed:    opts.Seed,
		spawner: opts.Spawner,
		done:    doneChan(opts.Context),
	}
	rt.k.MaxEvents = opts.MaxEvents
	rt.spawn("root", 0, root)
	runErr := rt.k.Run()
	elapsed = float64(rt.k.Now())
	if opts.Counters != nil {
		opts.Counters.Spawns = rt.spawns
		opts.Counters.Sends = rt.sends
		opts.Counters.Events = int64(rt.k.Events())
	}
	if runErr != nil {
		return elapsed, runErr
	}
	var stalled []string
	for _, t := range rt.task {
		if !t.finished {
			stalled = append(stalled, t.name)
		}
	}
	if len(stalled) > 0 {
		return elapsed, fmt.Errorf("pvm: tasks blocked at shutdown: %v", stalled)
	}
	return elapsed, nil
}
