// Package vtime is a deterministic discrete-event kernel with processes
// as coroutines.
//
// The paper's runtime and speedup figures depend on *when* heterogeneous
// machines finish work relative to each other; measuring that with wall
// clocks on a modern laptop would say nothing about a 12-workstation 2003
// LAN and would differ run to run. The kernel instead advances a virtual
// clock: processes charge compute time explicitly (Sleep with a duration
// derived from their machine's speed and load) and exchange messages via
// scheduled events, so a whole parallel run is a deterministic function
// of its seed.
//
// Exactly one process runs at any instant. Each process body is a
// coroutine made with iter.Pull: the kernel switches to it by calling its
// next function, and the process switches back by calling yield when it
// blocks, so control passes directly between the two without going
// through the Go scheduler and no shared state needs locking. Events at
// equal times fire in schedule order.
//
// A Sleep whose timer would be the next event anyway does not switch at
// all: the process advances the clock in place and runs on, consuming
// the sequence number and event count its timer would have used. Event
// order, Events and every virtual time stay what the queued timer would
// have given; only the heap push, the pop and two coroutine switches
// are saved.
package vtime

import (
	"errors"
	"fmt"
	"iter"
)

// Time is virtual seconds since Run started.
type Time float64

// eventKind says what an event does when it fires.
type eventKind uint8

const (
	callFn eventKind = iota // After: call fn
	start                   // Spawn: start p
	timer                   // Sleep: resume p if it is still in the sleep numbered gen
	wake                    // Wake: resume p if it is suspended
)

// event is one scheduled action, stored by value in the queue.
type event struct {
	at   Time
	seq  uint64
	kind eventKind
	p    *Proc
	gen  uint64
	fn   func()
}

// before orders events by (time, seq).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events under before.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	ev := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return ev
}

// blockReason distinguishes why a process is blocked.
type blockReason uint8

const (
	notBlocked blockReason = iota
	sleeping               // in Sleep: only its own timer may wake it
	suspended              // in Suspend: any Wake may (spuriously) wake it
)

// killedSentinel is the panic value that unwinds abandoned processes
// when the kernel shuts down.
var killedSentinel = errors.New("vtime: process killed at shutdown")

// Proc is one process. Its methods must only be called from within its
// own body function while it is the running process.
type Proc struct {
	k         *Kernel
	name      string
	fn        func(*Proc)
	next      func() (struct{}, bool) // switches to the coroutine; nil until started
	yield     func(struct{}) bool     // switches back to the kernel
	done      bool
	completed bool // body returned normally (not killed)
	reason    blockReason
	gen       uint64 // incremented at every block; stale wakes compare it
	kill      bool
	panicked  any // captured panic value, re-raised in kernel context
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel is the event scheduler. Create with NewKernel, add processes
// with Spawn, then Run.
type Kernel struct {
	now     Time
	seq     uint64
	queue   eventQueue
	procs   []*Proc
	running bool
	events  uint64

	// MaxEvents aborts Run after this many events (0 = no limit); a
	// backstop against runaway process loops.
	MaxEvents uint64
}

// NewKernel creates an empty kernel.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time. Safe to call from the running
// process or between Run calls.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of events processed so far.
func (k *Kernel) Events() uint64 { return k.events }

// schedule enqueues ev at its time (clamped to now).
func (k *Kernel) schedule(ev event) {
	if ev.at < k.now {
		ev.at = k.now
	}
	k.seq++
	ev.seq = k.seq
	k.queue.push(ev)
}

// fire runs ev in kernel context.
func (k *Kernel) fire(ev *event) {
	switch p := ev.p; ev.kind {
	case callFn:
		ev.fn()
	case start:
		k.resume(p)
	case timer:
		if p.reason == sleeping && p.gen == ev.gen {
			k.resume(p)
		}
	case wake:
		if p.reason == suspended {
			k.resume(p)
		}
	}
}

// After schedules fn to run d from now. fn runs in kernel context: it
// must not block and must not call Proc methods; it may Wake processes
// and schedule further events.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.schedule(event{at: k.now + d, kind: callFn, fn: fn})
}

// Spawn registers a new process whose body starts at the current virtual
// time (after already-scheduled same-time events). Callable before Run
// or from a running process.
//
// The body runs as a coroutine of the goroutine that called Run. A panic
// in the body propagates out of Run, wrapped with the process name. A
// runtime.Goexit in the body (what t.FailNow does) ends the goroutine
// that called Run, as if the body had run on it: Run does not return,
// but deferred calls up that goroutine's stack run. Either way, Run
// first kills every other blocked process.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		k:    k,
		name: name,
		fn:   fn,
	}
	k.procs = append(k.procs, p)
	k.schedule(event{at: k.now, kind: start, p: p})
	return p
}

// resume switches to p until it blocks or finishes.
func (k *Kernel) resume(p *Proc) {
	if p.done {
		return
	}
	p.reason = notBlocked
	if p.next == nil {
		p.next, _ = iter.Pull(p.body)
	}
	p.next()
	if p.panicked != nil {
		panic(p.panicked)
	}
}

// body is the coroutine around the process function. A panic is captured
// so resume re-raises it in Run's goroutine, where callers can see it.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		p.done = true
		if r := recover(); r != nil && r != killedSentinel {
			p.panicked = fmt.Sprintf("vtime: process %q panicked: %v", p.name, r)
		}
	}()
	p.fn(p)
	p.completed = true
}

// block parks the running process with the given reason until resumed.
func (p *Proc) block(reason blockReason) {
	p.gen++
	p.reason = reason
	p.yield(struct{}{})
	if p.kill {
		panic(killedSentinel)
	}
}

// Sleep advances the process's local time by d: it blocks and is woken
// by its own timer only. This is how processes charge compute time.
//
// When that timer would be the very next event, Sleep runs on instead:
// no other event is due at or before now+d and MaxEvents has room for
// one more, so the kernel would pop the timer straight away and resume
// this process. Sleep then does what that round trip would have done —
// it takes the timer's sequence number and event count, closes the
// sleep's generation and sets the clock to now+d — without queueing the
// timer or switching coroutines. An event already due at exactly now+d
// was scheduled earlier, so it carries a lower sequence number and must
// fire first; that case takes the queue. So does a process unwinding
// at shutdown, which must park again for Run to finish killing it.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	k := p.k
	at := k.now + d
	if (len(k.queue) == 0 || at < k.queue[0].at) &&
		(k.MaxEvents == 0 || k.events < k.MaxEvents) && !p.kill {
		k.seq++
		k.events++
		p.gen++
		k.now = at
		return
	}
	// The timer carries the generation the upcoming block will have.
	k.schedule(event{at: at, kind: timer, p: p, gen: p.gen + 1})
	p.block(sleeping)
}

// Suspend parks the process until some event calls Wake. Wakes can be
// spurious (a stale Wake event from a previous suspension); callers must
// re-check their condition in a loop.
func (p *Proc) Suspend() {
	p.block(suspended)
}

// Wake schedules p to resume at the current time if it is (still)
// suspended when the event fires. Calling it for a sleeping or running
// process is harmless. Must be called from kernel context (an After
// closure) or from the running process.
func (k *Kernel) Wake(p *Proc) {
	k.schedule(event{at: k.now, kind: wake, p: p})
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// ErrEventLimit reports that Run aborted because MaxEvents fired.
var ErrEventLimit = errors.New("vtime: event limit exceeded")

// Run processes events until the queue drains and returns. It returns
// ErrEventLimit if MaxEvents was hit.
//
// However Run ends, it first kills every started process that is still
// blocked: the process resumes with the kill sentinel pending, which
// unwinds its body (deferred calls run) and ends its coroutine. That
// holds when the queue drains, when MaxEvents fires, and when a process
// panic or runtime.Goexit leaves Run early.
func (k *Kernel) Run() error {
	if k.running {
		return errors.New("vtime: kernel already running")
	}
	k.running = true
	defer func() {
		k.queue = nil
		k.running = false
	}()
	defer k.killBlocked()

	for len(k.queue) > 0 {
		if k.MaxEvents > 0 && k.events >= k.MaxEvents {
			return ErrEventLimit
		}
		k.events++
		ev := k.queue.pop()
		k.now = ev.at
		k.fire(&ev)
	}
	return nil
}

// killBlocked unwinds every started, unfinished process in spawn order.
// It re-raises the first panic a process raises while unwinding, after
// every process has been unwound.
func (k *Kernel) killBlocked() {
	var panicked any
	for _, p := range k.procs {
		if p.next != nil && !p.done {
			p.kill = true
			p.next()
			if panicked == nil {
				panicked = p.panicked
			}
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

// Stalled returns the names of processes whose bodies never returned
// normally (blocked forever, killed at shutdown, or never started);
// populated meaningfully after Run.
func (k *Kernel) Stalled() []string {
	var out []string
	for _, p := range k.procs {
		if !p.completed {
			out = append(out, p.name)
		}
	}
	return out
}
