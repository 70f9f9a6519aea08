package pvm

import (
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"pts/internal/cluster"
	"pts/internal/rng"
)

// chanTransport is the in-process Transport. Its tasks run on threads:
// a thread is one goroutine with the tasks it hosts. Every spawn
// without Spec.Colocate starts a thread whose first task runs the body
// directly; a Colocate spawn joins its spawner's thread as an iter.Pull
// coroutine. The first task runs the thread's other tasks round robin
// whenever it blocks in Recv or Work, and after its own body returns
// until they have all finished. A coroutine task yields whenever its
// Recv finds no matching message, and at every Work. A send within a
// thread marks the receiver runnable and costs no wake-up; a send to
// another thread appends under that thread's lock and wakes it if it
// is parked. A task woken from another thread runs only once nothing
// else on its thread can, so the thread's schedule does not depend on
// when such a message arrives.
type chanTransport struct{}

// rRuntime is the wall-clock runtime of one in-process run.
type rRuntime struct {
	c         cluster.Cluster
	seed      uint64
	workScale float64
	spawner   TaskFactory
	done      <-chan struct{}
	start     time.Time

	spawns atomic.Int64
	sends  atomic.Int64

	mu    sync.Mutex               // serializes spawns
	tasks atomic.Pointer[[]*rTask] // by TaskID, replaced whole on spawn
	wg    sync.WaitGroup
}

// rThread is one goroutine and the tasks it runs. Only the thread's own
// goroutine (its first task, or a coroutine that task resumed) touches
// co and cursor; mu guards the hosted tasks' inboxes and run states,
// which senders on other threads update.
type rThread struct {
	owner  *rTask   // the task the thread's goroutine runs directly
	co     []*rTask // coroutine tasks, resumed round robin
	cursor int      // index in co of the next task to consider

	mu    sync.Mutex
	idle  bool          // the thread is parked waiting on wake
	wake  chan struct{} // capacity 1: a send made a parked thread runnable
	timer *time.Timer   // ends a park at the earliest emulated finish time
}

// rState is where a task is in its thread's schedule.
type rState uint8

const (
	rRunning  rState = iota // executing, or done
	rReady                  // runnable at the next turn
	rBlocked                // in Recv, until a message matching want arrives
	rSleeping               // in Work, runnable from until
	rNotified               // woken from another thread: runnable once no rReady or due rSleeping task is
)

// rTask is one real task.
type rTask struct {
	rt      *rRuntime
	id      TaskID
	name    string
	machine int
	r       *rng.SplitMix64
	th      *rThread

	// A coroutine task's resume and suspend functions; both are nil
	// for a thread's first task.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// Guarded by th.mu.
	state rState
	want  []Tag
	until time.Time
	inbox []Message
}

var _ Env = (*rTask)(nil)

func (t *rTask) Self() TaskID          { return t.id }
func (t *rTask) Name() string          { return t.name }
func (t *rTask) MachineIndex() int     { return t.machine }
func (t *rTask) Rand() *rng.SplitMix64 { return t.r }
func (t *rTask) Now() float64          { return time.Since(t.rt.start).Seconds() }
func (t *rTask) Cancelled() bool       { return cancelled(t.rt.done) }

// MachineSpeed implements SpeedReporter from the cluster model, whose
// Machine wraps the index exactly like spawn does.
func (t *rTask) MachineSpeed(machine int) float64 {
	return t.rt.c.Machine(machine).Speed
}

func (t *rTask) Spawn(name string, machine int, fn TaskFunc) TaskID {
	return t.rt.spawn(nil, t.name+"/"+name, machine, fn)
}

func (t *rTask) SpawnSpec(name string, machine int, spec Spec) TaskID {
	fullName := t.name + "/" + name
	var th *rThread
	if spec.Colocate {
		th = t.th
	}
	return t.rt.spawn(th, fullName, machine, resolveSpec(t.rt.spawner, fullName, spec))
}

// spawn starts fn as a coroutine task on th, or on a new thread when th
// is nil.
func (rt *rRuntime) spawn(th *rThread, fullName string, machine int, fn TaskFunc) TaskID {
	rt.spawns.Add(1)
	machine = ((machine % len(rt.c.Machines)) + len(rt.c.Machines)) % len(rt.c.Machines)
	child := &rTask{
		rt:      rt,
		name:    fullName,
		machine: machine,
		r:       rng.NewChild(rt.seed, "pvm.task", fullName),
		th:      th,
	}
	if th != nil {
		child.state = rReady
		child.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			child.yield = yield
			fn(child)
		})
		th.co = append(th.co, child)
	} else {
		child.th = &rThread{owner: child, wake: make(chan struct{}, 1)}
	}
	rt.mu.Lock()
	var tasks []*rTask
	if p := rt.tasks.Load(); p != nil {
		tasks = *p
	}
	child.id = TaskID(len(tasks))
	tasks = append(tasks[:len(tasks):len(tasks)], child)
	rt.tasks.Store(&tasks)
	rt.mu.Unlock()
	if th == nil {
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			fn(child)
			child.th.drive(nil)
		}()
	}
	return child.id
}

func (rt *rRuntime) lookup(id TaskID) *rTask {
	tasks := *rt.tasks.Load()
	if int(id) < 0 || int(id) >= len(tasks) {
		return nil
	}
	return tasks[id]
}

func (t *rTask) Send(to TaskID, tag Tag, data any) {
	t.rt.sends.Add(1)
	dst := t.rt.lookup(to)
	if dst == nil {
		panic(fmt.Sprintf("pvm: send to unknown task %d from %q", to, t.name))
	}
	th := dst.th
	local := th == t.th
	th.mu.Lock()
	dst.inbox = append(dst.inbox, Message{From: t.id, Tag: tag, Data: data})
	wake := false
	if (dst.state == rBlocked || local && dst.state == rNotified) && matches(tag, dst.want) {
		if local {
			dst.state = rReady
		} else {
			dst.state = rNotified
			wake, th.idle = th.idle, false
		}
	}
	th.mu.Unlock()
	if wake {
		select {
		case th.wake <- struct{}{}:
		default:
		}
	}
}

func (t *rTask) Recv(tags ...Tag) Message {
	th := t.th
	th.mu.Lock()
	for {
		if m, ok := scanInbox(&t.inbox, tags); ok {
			t.want = nil
			th.mu.Unlock()
			return m
		}
		t.state, t.want = rBlocked, tags
		th.mu.Unlock()
		t.park()
		th.mu.Lock()
	}
}

func (t *rTask) TryRecv(tags ...Tag) (Message, bool) {
	t.th.mu.Lock()
	defer t.th.mu.Unlock()
	return scanInbox(&t.inbox, tags)
}

// Work is a scheduling point. With RealWorkScale > 0 it emulates the
// machine's speed: the task resumes no earlier than
// seconds*RealWorkScale/speed from now, while the thread runs its other
// tasks, so the sleeps of co-scheduled tasks overlap. Without it, a
// coroutine task yields for one turn when another task of its thread
// can run, and a thread's first task goes straight on, since compute
// already costs wall time.
func (t *rTask) Work(seconds float64) {
	var d time.Duration
	if seconds > 0 && t.rt.workScale > 0 {
		// Real mode models speed only (loads would just add sleep noise).
		d = time.Duration(seconds * t.rt.workScale / t.rt.c.Machines[t.machine].Speed * float64(time.Second))
	}
	if d <= 0 && t.next == nil {
		return
	}
	th := t.th
	th.mu.Lock()
	switch {
	case d > 0:
		t.state, t.until = rSleeping, time.Now().Add(d)
	case !th.othersRunnable(t):
		// The turn would come straight back to t.
		th.mu.Unlock()
		return
	default:
		t.state = rReady
	}
	th.mu.Unlock()
	t.park()
}

// park suspends t until the thread finds it runnable again: a coroutine
// task yields to its thread, the thread's first task runs the others
// meanwhile.
func (t *rTask) park() {
	if t.next != nil {
		t.yield(struct{}{})
		return
	}
	t.th.drive(t)
}

// drive runs the thread's coroutine tasks round robin until self, the
// thread's first task, is runnable again; with self nil, until every
// coroutine task has finished. It parks the goroutine while no task is
// runnable.
func (th *rThread) drive(self *rTask) {
	for {
		var now time.Time
		th.mu.Lock()
		if self != nil && self.runnable(&now) {
			self.state = rRunning
			th.mu.Unlock()
			return
		}
		if self == nil && len(th.co) == 0 {
			th.mu.Unlock()
			return
		}
		if c := th.pick(&now); c != nil {
			c.state = rRunning
			th.mu.Unlock()
			th.resume(c)
			continue
		}
		if th.promote(self) {
			th.mu.Unlock()
			continue
		}
		deadline := th.deadline(self)
		th.idle = true
		th.mu.Unlock()
		th.park(deadline)
	}
}

// runnable reports whether t may run now; now is read from the clock
// on first need. Callers hold th.mu.
func (t *rTask) runnable(now *time.Time) bool {
	switch t.state {
	case rReady:
		return true
	case rSleeping:
		if now.IsZero() {
			*now = time.Now()
		}
		return !now.Before(t.until)
	}
	return false
}

// pick returns the next runnable coroutine task after the cursor, or
// nil. Callers hold th.mu.
func (th *rThread) pick(now *time.Time) *rTask {
	n := len(th.co)
	for i := 0; i < n; i++ {
		k := (th.cursor + i) % n
		if c := th.co[k]; c.runnable(now) {
			th.cursor = (k + 1) % n
			return c
		}
	}
	return nil
}

// promote makes the thread's rNotified tasks (self included) runnable
// and reports whether there were any. drive calls it only once no task
// is runnable otherwise, so a message from another thread takes effect
// at the same point of the thread's schedule however early it arrives.
// Callers hold th.mu.
func (th *rThread) promote(self *rTask) bool {
	any := false
	wake := func(t *rTask) {
		if t != nil && t.state == rNotified {
			t.state, any = rReady, true
		}
	}
	wake(self)
	for _, c := range th.co {
		wake(c)
	}
	return any
}

// othersRunnable reports whether a task of the thread other than t may
// run now. Callers hold th.mu.
func (th *rThread) othersRunnable(t *rTask) bool {
	var now time.Time
	if th.owner != t && th.owner.runnable(&now) {
		return true
	}
	for _, c := range th.co {
		if c != t && c.runnable(&now) {
			return true
		}
	}
	return false
}

// deadline is the earliest emulated finish time among the thread's
// sleeping tasks (self included), or zero if none sleeps. Callers hold
// th.mu.
func (th *rThread) deadline(self *rTask) time.Time {
	var d time.Time
	consider := func(t *rTask) {
		if t != nil && t.state == rSleeping && (d.IsZero() || t.until.Before(d)) {
			d = t.until
		}
	}
	consider(self)
	for _, c := range th.co {
		consider(c)
	}
	return d
}

// park waits for a wake-up, or until deadline when it is not zero.
func (th *rThread) park(deadline time.Time) {
	if deadline.IsZero() {
		<-th.wake
	} else {
		if th.timer == nil {
			th.timer = time.NewTimer(time.Until(deadline))
		} else {
			th.timer.Reset(time.Until(deadline))
		}
		select {
		case <-th.wake:
		case <-th.timer.C:
		}
		th.timer.Stop()
	}
	th.mu.Lock()
	th.idle = false
	th.mu.Unlock()
}

// resume runs coroutine task c until it yields, and drops it from the
// schedule once its body has returned.
func (th *rThread) resume(c *rTask) {
	if _, ok := c.next(); ok {
		return
	}
	for i, t := range th.co {
		if t == c {
			th.co = append(th.co[:i], th.co[i+1:]...)
			if th.cursor > i {
				th.cursor--
			}
			break
		}
	}
	if th.cursor >= len(th.co) {
		th.cursor = 0
	}
}

// RunReal executes root (and everything it spawns) with wall-clock
// timing on Options.Transport (the in-process transport when nil) and
// returns the elapsed seconds once every task has finished. Unlike
// RunVirtual it cannot detect deadlocks: a task that waits forever
// hangs the run.
func RunReal(opts Options, root TaskFunc) (elapsed float64, err error) {
	tr := opts.Transport
	if tr == nil {
		tr = InProcess()
	}
	return tr.Run(opts, root)
}

// Run implements Transport on the in-process thread runtime.
func (chanTransport) Run(opts Options, root TaskFunc) (elapsed float64, err error) {
	opts = opts.withDefaults()
	if err := opts.Cluster.Validate(); err != nil {
		return 0, err
	}
	rt := &rRuntime{
		c:         opts.Cluster,
		seed:      opts.Seed,
		workScale: opts.RealWorkScale,
		spawner:   opts.Spawner,
		done:      doneChan(opts.Context),
		start:     time.Now(),
	}
	rt.spawn(nil, "root", 0, root)
	rt.wg.Wait()
	if opts.Counters != nil {
		opts.Counters.Spawns = rt.spawns.Load()
		opts.Counters.Sends = rt.sends.Load()
	}
	return time.Since(rt.start).Seconds(), nil
}
