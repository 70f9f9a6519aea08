// Package pvm provides the PVM-like message-passing substrate the
// parallel tabu search runs on: spawn tasks on cluster machines, send
// typed-tag messages, receive selectively, and charge compute time.
//
// Two interchangeable runtimes implement the same Env interface:
//
//   - RunVirtual executes on the deterministic discrete-event kernel
//     (pts/internal/vtime): compute time is charged against the modeled
//     machine speeds/loads and messages take modeled LAN latency. All
//     experiment figures use this runtime — results are bit-identical
//     across hosts and runs.
//   - RunReal executes with wall-clock time on Options.Transport. The
//     in-process default runs tasks on threads: each thread is one
//     goroutine, so tasks on different threads run genuinely in
//     parallel. A task spawned with Spec.Colocate is a coroutine on its
//     spawner's thread instead, and the thread's tasks take turns: its
//     first task runs the others whenever it blocks in Recv or Work, a
//     coroutine yields whenever its Recv finds nothing to take and at
//     every Work. Work is thus a scheduling point; with
//     Options.RealWorkScale it also sets the earliest time the task may
//     resume, so the emulated sleeps of co-scheduled tasks overlap.
//
// Task random streams are derived from the task's spawn path (e.g.
// "root/tsw2/clw1"), so both runtimes sample identically.
package pvm

import (
	"context"

	"pts/internal/cluster"
	"pts/internal/rng"
)

// Tag labels a message's purpose; receivers select on it.
type Tag int32

// TagExit is the reserved tag of task-exit notifications, modeled on
// PVM's pvm_notify(PvmTaskExit): a task that registered interest in a
// peer via NotifyExit receives a Message{From: peer, Tag: TagExit}
// when the transport loses the process hosting that peer. Negative so
// it can never collide with program tags. Transports whose tasks
// cannot be lost (the virtual kernel, in-process goroutines) never
// deliver it.
const TagExit Tag = -1

// TaskID identifies a spawned task within one run.
type TaskID int32

// Message is what Recv returns.
type Message struct {
	From TaskID
	Tag  Tag
	Data any
}

// Sized lets payloads report their size in 4-byte items so the virtual
// runtime can model transfer latency; unsized payloads count as one item.
type Sized interface {
	PVMItems() int
}

// payloadItems returns the modeled size of a payload.
func payloadItems(data any) int {
	if s, ok := data.(Sized); ok {
		if n := s.PVMItems(); n > 0 {
			return n
		}
	}
	return 1
}

// TaskFunc is a task body.
type TaskFunc func(Env)

// Env is a task's handle to the runtime. Not safe for concurrent use by
// other goroutines: each task calls its own Env only.
type Env interface {
	// Self returns this task's ID.
	Self() TaskID
	// Name returns this task's full spawn path (e.g. "root/tsw0/clw2").
	Name() string
	// MachineIndex returns the cluster machine this task runs on.
	MachineIndex() int
	// Spawn starts fn as a new task on the given cluster machine
	// (wrapped modulo the cluster size) and returns its ID. The task is
	// bound to this process: transports that place tasks in other
	// processes reject it — portable programs use SpawnSpec.
	Spawn(name string, machine int, fn TaskFunc) TaskID
	// SpawnSpec starts a task described portably: in-process transports
	// run spec.Fn directly (bit-identical to Spawn), network transports
	// rebuild the body from spec.Kind and spec.Data on whichever process
	// owns the target machine.
	SpawnSpec(name string, machine int, spec Spec) TaskID
	// Send delivers data to the task `to` with the given tag,
	// asynchronously.
	Send(to TaskID, tag Tag, data any)
	// Recv blocks until a message with one of the tags (any tag if none
	// given) is available, and returns the oldest such message.
	Recv(tags ...Tag) Message
	// TryRecv is Recv without blocking; ok reports whether a message
	// matched.
	TryRecv(tags ...Tag) (Message, bool)
	// Work charges `seconds` of reference compute (the time the work
	// would take on an idle speed-1.0 machine); the runtime converts it
	// to this machine's speed and load.
	Work(seconds float64)
	// Now returns seconds since the run started (virtual or wall).
	Now() float64
	// Rand returns the task's deterministic random stream.
	Rand() *rng.SplitMix64
	// Cancelled reports whether the run's context (Options.Context) has
	// been cancelled or has passed its deadline. Task bodies poll it at
	// loop boundaries and wind down cooperatively: the runtimes never
	// kill a task, so protocols drain cleanly and no goroutine leaks.
	// Always false when no context was supplied.
	Cancelled() bool
}

// ExitNotifier is an optional Env capability: transports that can lose
// remote tasks implement it so programs may register for TagExit
// notifications instead of having the whole run abort. A task loss is
// survivable exactly when every task on the lost node is watched.
type ExitNotifier interface {
	// NotifyExit requests a Message{From: id, Tag: TagExit} should the
	// process hosting task id be lost mid-run.
	NotifyExit(id TaskID)
}

// NotifyExit registers interest in a peer task's loss when env's
// transport supports it, and reports whether it did. On transports
// where tasks cannot be lost it is a no-op returning false — the
// caller's TagExit branch simply never fires there.
func NotifyExit(env Env, id TaskID) bool {
	if n, ok := env.(ExitNotifier); ok {
		n.NotifyExit(id)
		return true
	}
	return false
}

// RespawnPlacer is an optional Env capability: transports that track
// node liveness resolve where a replacement task should be spawned
// after a loss — absorbed elastic spare capacity first (a live slot
// hosting nothing), else the least-loaded surviving node. Transports
// whose tasks cannot be lost need not implement it; respawn never
// happens there.
type RespawnPlacer interface {
	// RespawnSlot returns the machine slot a replacement for a task
	// lost on (or near) the preferred slot should be placed on. The
	// returned slot is live at the time of the call.
	RespawnSlot(preferred int) int
}

// RespawnSlotOf resolves a replacement task's machine slot through
// env, falling back to the preferred slot on transports that do not
// track liveness (where the preferred slot cannot have died).
func RespawnSlotOf(env Env, preferred int) int {
	if p, ok := env.(RespawnPlacer); ok {
		return p.RespawnSlot(preferred)
	}
	return preferred
}

// RunAborter is an optional Env capability: tear the whole run down
// from inside a task when the program decides a loss is unrecoverable
// (e.g. a worker lost before any recovery state was captured). The
// transport unwinds every task and Run returns an error wrapping
// ErrAborted; state the program assembled before the abort stays
// intact.
type RunAborter interface {
	AbortRun(cause error)
}

// AbortRunOf aborts the run through env when the transport supports
// it, reporting whether it did. On transports that cannot lose tasks
// it returns false — the unrecoverable-loss situation cannot arise
// there.
func AbortRunOf(env Env, cause error) bool {
	if a, ok := env.(RunAborter); ok {
		a.AbortRun(cause)
		return true
	}
	return false
}

// SpeedReporter is an optional Env capability: the declared relative
// compute speed of a machine slot, the heterogeneity knob schedulers
// seed their initial work shares from.
type SpeedReporter interface {
	// MachineSpeed returns the declared relative speed of the given
	// machine index (wrapped like Spawn wraps it); 1.0 is the reference.
	MachineSpeed(machine int) float64
}

// MachineSpeedOf resolves a machine slot's declared speed through env,
// defaulting to 1.0 when the transport does not expose speeds.
func MachineSpeedOf(env Env, machine int) float64 {
	if s, ok := env.(SpeedReporter); ok {
		if sp := s.MachineSpeed(machine); sp > 0 {
			return sp
		}
	}
	return 1.0
}

// Counters reports what a run did; attach one to Options to collect.
type Counters struct {
	// Spawns is the number of tasks started (including the root).
	Spawns int64
	// Sends is the number of messages sent.
	Sends int64
	// Events is the number of kernel events processed (virtual runtime
	// only).
	Events int64
}

// Options configure a run.
type Options struct {
	// Context, when non-nil, exposes cancellation to every task via
	// Env.Cancelled. Cancellation is cooperative: tasks observe it and
	// shut their protocol down; the runtimes keep running until all
	// tasks finished. Virtual runs driven by a never-cancelled context
	// remain fully deterministic.
	Context context.Context
	// Cluster supplies machines and the message cost model. Defaults to
	// a single idle speed-1.0 machine.
	Cluster cluster.Cluster
	// Seed drives every task's random stream.
	Seed uint64
	// MaxEvents bounds the virtual kernel (0 = default 500M events).
	MaxEvents uint64
	// RealWorkScale, when positive, makes the real runtime emulate
	// machine speed by sleeping seconds*RealWorkScale/speed for each
	// Work call; 0 (default) makes Work a no-op in real mode, where
	// compute costs wall time anyway.
	RealWorkScale float64
	// Counters, when non-nil, receives run statistics.
	Counters *Counters
	// Transport, when non-nil, hosts real-mode runs; nil selects the
	// in-process goroutine transport. The virtual runtime ignores it.
	Transport Transport
	// JobPayload is an opaque program description a network transport
	// ships to every worker process when the run starts (problem
	// fingerprint, search configuration, ...). It must be gob-encodable
	// with its concrete type registered. In-process transports ignore
	// it.
	JobPayload any
	// Spawner rebuilds portable task bodies from their Spec kind and
	// data. Network transports call it to host tasks whose SpawnSpec was
	// issued by a task living in another process; in-process transports
	// fall back to it only for specs without an inline Fn.
	Spawner TaskFactory
	// Elastic lets network transports grow a running job: a worker
	// process joining after the run started is absorbed as spare
	// capacity (new machine slots appended to the slot ring) instead of
	// parking in the lobby for the next job. In-process transports
	// ignore it.
	Elastic bool
}

// TaskFactory rebuilds a portable task body from its Spec kind and
// data — the one signature shared by Options.Spawner and the worker
// side of network transports.
type TaskFactory func(kind string, data any) (TaskFunc, error)

// withDefaults normalizes options.
func (o Options) withDefaults() Options {
	if len(o.Cluster.Machines) == 0 {
		o.Cluster = cluster.Homogeneous(1, 1.0)
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 500_000_000
	}
	return o
}

// doneChan extracts the cancellation channel of an optional context; a
// nil channel never fires, so Cancelled stays false without one.
func doneChan(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// cancelled polls a done channel without blocking.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// matches reports whether tag is in tags (empty = match all).
func matches(tag Tag, tags []Tag) bool {
	if len(tags) == 0 {
		return true
	}
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}

// scanInbox removes and returns the oldest message matching tags.
func scanInbox(inbox *[]Message, tags []Tag) (Message, bool) {
	for i, m := range *inbox {
		if matches(m.Tag, tags) {
			*inbox = append((*inbox)[:i], (*inbox)[i+1:]...)
			return m, true
		}
	}
	return Message{}, false
}

// ScanInbox removes and returns the oldest message matching tags (any
// tag if none given) — the selective-receive primitive shared by every
// transport's Env implementation.
func ScanInbox(inbox *[]Message, tags []Tag) (Message, bool) {
	return scanInbox(inbox, tags)
}

// AbortTask unwinds the calling task immediately: it panics with a
// sentinel that RunTask recovers, so a task blocked at any depth can be
// torn down when its transport aborts the run. Only transport Env
// implementations call it.
func AbortTask() {
	panic(taskAbort{})
}

// RunTask executes a task body under the abort protocol: an AbortTask
// unwind ends the task quietly, any other panic propagates. Transports
// wrap every hosted task goroutine in it.
func RunTask(env Env, fn TaskFunc) {
	defer recoverAbort()
	fn(env)
}
