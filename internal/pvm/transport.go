package pvm

import (
	"errors"
	"fmt"
)

// Transport hosts one real-time run of a PVM program: it owns where
// tasks execute and how messages travel between them, while the Env
// contract the task bodies see — Spawn/Send/Recv and the group
// operations built on them — stays identical.
//
// Two implementations ship with the repository:
//
//   - InProcess (the default) executes tasks on threads of the calling
//     process with in-memory inboxes. A thread is one goroutine; a task
//     spawned with Spec.Colocate runs as a coroutine on its spawner's
//     thread and advances only at the thread's scheduling points, Recv
//     and Work.
//   - nettrans.Master / nettrans worker daemons execute the same
//     protocol across OS processes over TCP, with the master process
//     routing length-prefixed gob frames between nodes.
//
// Run executes root (and everything it spawns) and returns the elapsed
// wall-clock seconds once every task has finished. A transport that
// loses a remote peer mid-run tears the run down and returns an error
// wrapping ErrAborted; the in-process transport never aborts.
type Transport interface {
	Run(opts Options, root TaskFunc) (elapsed float64, err error)
}

// Finisher is an optional Transport capability: after Run has returned
// and the program has assembled its final result, Finish delivers a
// summary of it to every remote peer (so worker processes can report
// the same outcome as the master) and releases them. Transports without
// remote peers need not implement it.
type Finisher interface {
	Finish(summary any) error
}

// Spec describes a spawnable task portably. Fn is the task body used
// whenever the task is hosted in the spawning process (the in-process
// transports always use it); Kind plus Data let a network transport
// rebuild an equivalent body in another process through the program's
// Options.Spawner. Data must be gob-encodable (and its concrete type
// gob-registered) for specs that may cross a process boundary.
//
// Colocate asks the in-process transport to run the task as a
// coroutine on its spawner's thread instead of on a thread of its own:
// it advances only when the thread's running task blocks in Recv or
// Work, so a message between it and its spawner is a coroutine switch
// rather than a goroutine wake-up. It suits a task that works in
// lockstep with its spawner. Network transports and the virtual
// runtime ignore it.
type Spec struct {
	Kind     string
	Data     any
	Fn       TaskFunc
	Colocate bool
}

// ErrAborted is wrapped by Transport.Run errors when a run was torn
// down rather than drained: a remote worker process died or rejected
// the job mid-run. The program's best-so-far state assembled before the
// abort remains valid — callers typically report it with an
// "interrupted" marker.
var ErrAborted = errors.New("pvm: run aborted")

// taskAbort is the panic value used to unwind a task blocked in Recv
// (or any other blocking primitive) when its transport aborts the run.
// Task goroutine wrappers recover it; any other panic propagates.
type taskAbort struct{}

// recoverAbort is the deferred handler every abortable task runner
// installs: it swallows taskAbort unwinds and re-panics everything
// else.
func recoverAbort() {
	if r := recover(); r != nil {
		if _, ok := r.(taskAbort); !ok {
			panic(r)
		}
	}
}

// InProcess returns the default transport, which runs tasks on threads
// of the calling process. Each spawn starts a thread, a goroutine of
// its own, except a Spec.Colocate spawn, which becomes a coroutine on
// its spawner's thread. A thread's first task runs the thread's other
// tasks round robin whenever it blocks in Recv or Work, and after its
// own body returns; a coroutine yields whenever its Recv finds nothing
// to take, and at every Work. With RealWorkScale > 0, Work resumes its
// task no earlier than the emulated finish time, so co-scheduled
// sleeps overlap. A message within a thread only marks the receiver
// runnable; one to another thread appends to its inbox under that
// thread's lock and wakes the thread if it is parked, and its receiver
// runs once nothing else on that thread can. Messages are in-memory
// inbox appends either way.
func InProcess() Transport { return chanTransport{} }

// resolveSpec returns the body of a spec-spawned task hosted in this
// process: the inline Fn when the spawner provided one, else the body
// the program's Spawner rebuilds — the same path a remote host takes.
// A spec with neither is a programming error.
func resolveSpec(spawner TaskFactory, name string, spec Spec) TaskFunc {
	if spec.Fn != nil {
		return spec.Fn
	}
	if spawner == nil {
		panic(fmt.Sprintf("pvm: spawn %q: spec has no Fn and no Options.Spawner is configured", name))
	}
	fn, err := spawner(spec.Kind, spec.Data)
	if err != nil {
		panic(fmt.Sprintf("pvm: spawn %q: %v", name, err))
	}
	return fn
}
