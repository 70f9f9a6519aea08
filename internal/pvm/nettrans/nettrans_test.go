package nettrans

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pts/internal/pvm"
)

// The toy protocol the transport tests run: root spawns echo tasks,
// pings each once, and sums the pongs.
const (
	tagPing pvm.Tag = iota + 1
	tagPong
)

const kindEcho = "test.echo"

// echoSpec rebuilds an echo task wherever it lands.
type echoSpec struct {
	Parent pvm.TaskID
	Bias   int
}

// testSummary is the finale payload of the toy program.
type testSummary struct {
	Total int
}

func init() {
	gob.Register(echoSpec{})
	gob.Register(testSummary{})
	gob.Register(0)
}

// echoFactory is both the worker-side TaskFactory and the master-side
// Spawner of the toy protocol.
func echoFactory(kind string, data any) (pvm.TaskFunc, error) {
	if kind != kindEcho {
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
	spec, ok := data.(echoSpec)
	if !ok {
		return nil, fmt.Errorf("kind %q wants echoSpec, got %T", kind, data)
	}
	return func(env pvm.Env) {
		m := env.Recv(tagPing)
		env.Send(spec.Parent, tagPong, m.Data.(int)+spec.Bias)
	}, nil
}

// echoHandler is the worker-side program handler; it records the job
// payload and final summary it saw.
type echoHandler struct {
	factory TaskFactory // defaults to echoFactory

	mu      sync.Mutex
	payload any
	summary any
}

func (h *echoHandler) Start(payload any) (TaskFactory, error) {
	h.mu.Lock()
	h.payload = payload
	h.mu.Unlock()
	if h.factory != nil {
		return h.factory, nil
	}
	return echoFactory, nil
}

func (h *echoHandler) Done(summary any) {
	h.mu.Lock()
	h.summary = summary
	h.mu.Unlock()
}

// startWorkers launches n worker daemons against addr, each serving one
// job, and returns their handlers plus a wait-and-check func.
func startWorkers(t *testing.T, addr string, n int, speeds []float64, factory TaskFactory) ([]*echoHandler, func()) {
	t.Helper()
	handlers := make([]*echoHandler, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		handlers[i] = &echoHandler{factory: factory}
		cfg := WorkerConfig{
			Addr: addr, Name: fmt.Sprintf("w%d", i),
			Speed: speeds[i%len(speeds)], Capacity: 1, Jobs: 1,
		}
		go func(h *echoHandler, cfg WorkerConfig) {
			errs <- RunWorker(context.Background(), cfg, h)
		}(handlers[i], cfg)
	}
	return handlers, func() {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Errorf("worker: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("worker did not finish")
			}
		}
	}
}

// runEcho executes the toy program over the given transport: root
// spawns `tasks` echo tasks spread over machines 1.., pings each with
// its index, and sums the answers. The expected total for bias 100 is
// Σ(i+100).
func runEcho(t *testing.T, tr pvm.Transport, tasks int, counters *pvm.Counters) int {
	t.Helper()
	total, err := runEchoErr(tr, tasks, counters)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return total
}

// runEchoErr is runEcho for goroutines: it reports the run error
// instead of failing the test from off the test goroutine.
func runEchoErr(tr pvm.Transport, tasks int, counters *pvm.Counters) (int, error) {
	total := 0
	opts := pvm.Options{
		Seed:     7,
		Counters: counters,
		Spawner:  echoFactory,
	}
	opts.Transport = tr
	_, err := pvm.RunReal(opts, func(env pvm.Env) {
		ids := make([]pvm.TaskID, tasks)
		for i := range ids {
			ids[i] = env.SpawnSpec(fmt.Sprintf("echo%d", i), 1+i, pvm.Spec{
				Kind: kindEcho,
				Data: echoSpec{Parent: env.Self(), Bias: 100},
				Fn:   nil, // forces transports to go through the factory path off-process
			})
		}
		for i, id := range ids {
			env.Send(id, tagPing, i)
		}
		for range ids {
			total += env.Recv(tagPong).Data.(int)
		}
	})
	return total, err
}

// waitFree polls the registry until n workers are idle in the lobby.
func waitFree(t *testing.T, m *Master, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.FreeWorkers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("lobby never reached %d idle workers (now %d)", n, m.FreeWorkers())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// inProcessEcho runs the same program on the default transport (specs
// resolve to closures through the Spawner there too, matching what the
// distributed run executes).
func inProcessEcho(t *testing.T, tasks int, counters *pvm.Counters) int {
	t.Helper()
	total := 0
	_, err := pvm.RunReal(pvm.Options{Seed: 7, Counters: counters}, func(env pvm.Env) {
		ids := make([]pvm.TaskID, tasks)
		for i := range ids {
			fn, ferr := echoFactory(kindEcho, echoSpec{Parent: 0, Bias: 100})
			if ferr != nil {
				t.Error(ferr)
				return
			}
			ids[i] = env.SpawnSpec(fmt.Sprintf("echo%d", i), 1+i, pvm.Spec{Kind: kindEcho, Fn: fn})
		}
		for i, id := range ids {
			env.Send(id, tagPing, i)
		}
		for range ids {
			total += env.Recv(tagPong).Data.(int)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return total
}

func TestLoopbackRun(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	handlers, wait := startWorkers(t, m.Addr(), 2, []float64{1.0, 0.5}, nil)

	var c pvm.Counters
	total := runEcho(t, m, 6, &c)
	want := 0
	for i := 0; i < 6; i++ {
		want += i + 100
	}
	if total != want {
		t.Errorf("total = %d, want %d", total, want)
	}
	if c.Spawns != 7 { // root + 6 echoes
		t.Errorf("Spawns = %d, want 7", c.Spawns)
	}
	// Every ping and every pong is exactly one send, wherever the
	// endpoints live.
	if c.Sends != 12 {
		t.Errorf("Sends = %d, want 12", c.Sends)
	}

	if err := m.Finish(testSummary{Total: total}); err != nil {
		t.Errorf("finish: %v", err)
	}
	wait()
	for i, h := range handlers {
		h.mu.Lock()
		payload, summary := h.payload, h.summary
		h.mu.Unlock()
		if payload != nil {
			t.Errorf("worker %d: unexpected job payload %v", i, payload)
		}
		ts, ok := summary.(testSummary)
		if !ok || ts.Total != total {
			t.Errorf("worker %d: summary = %#v, want total %d", i, summary, total)
		}
	}
}

func TestCountersMatchInProcessTransport(t *testing.T) {
	var inproc pvm.Counters
	wantTotal := inProcessEcho(t, 5, &inproc)

	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, wait := startWorkers(t, m.Addr(), 3, []float64{1, 0.55, 0.3}, nil)
	var dist pvm.Counters
	total := runEcho(t, m, 5, &dist)
	m.Finish(nil)
	wait()

	if total != wantTotal {
		t.Errorf("program outcome differs: %d vs %d", total, wantTotal)
	}
	if dist.Spawns != inproc.Spawns || dist.Sends != inproc.Sends {
		t.Errorf("counters differ across transports: distributed %+v, in-process %+v", dist, inproc)
	}
}

// rawDial opens a plain TCP connection to the master.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return nc
}

func TestMalformedFrameRejected(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Garbage bytes: not even a gob stream.
	nc := rawDial(t, m.Addr())
	nc.Write([]byte{0, 0, 0, 8, 'g', 'a', 'r', 'b', 'a', 'g', 'e', '!'})
	if !connClosedByPeer(nc) {
		t.Error("garbage frame: connection not dropped")
	}

	// An absurd length prefix must be refused without allocating it.
	nc = rawDial(t, m.Addr())
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	nc.Write(hdr[:])
	if !connClosedByPeer(nc) {
		t.Error("oversized frame: connection not dropped")
	}

	// A well-framed join whose data names a type this process never
	// registered: gob cannot decode it, so the frame is malformed.
	nc = rawDial(t, m.Addr())
	ghost := encodeStream(t, &frame{Type: fJoin, Worker: "ghost", Speed: 1, Capacity: 1, Data: ghostData{N: 1}})
	nc.Write(bytes.Replace(ghost, []byte("ghost-A"), []byte("ghost-B"), 1))
	if !connClosedByPeer(nc) {
		t.Error("data of an unregistered type: connection not dropped")
	}

	// The master must still be healthy: a well-formed join succeeds.
	c := newConn(rawDial(t, m.Addr()))
	if err := c.write(&frame{Type: fJoin, Worker: "ok", Speed: 1, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	ack, err := c.read()
	if err != nil || ack.Type != fJoinAck || ack.Err != "" {
		t.Fatalf("healthy join after malformed peers failed: %+v, %v", ack, err)
	}
	c.close()
}

// ghostData is registered under a name that a byte patch turns into
// one nobody registered.
type ghostData struct{ N int }

func init() { gob.RegisterName("nettrans.test.ghost-A", ghostData{}) }

// connClosedByPeer reports whether the peer closes nc (or stops
// talking) within the admission window.
func connClosedByPeer(nc net.Conn) bool {
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(12 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := nc.Read(buf); err != nil {
			ne, ok := err.(net.Error)
			return !(ok && ne.Timeout())
		}
	}
}

func TestDoubleJoinRefused(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	first := newConn(rawDial(t, m.Addr()))
	defer first.close()
	if err := first.write(&frame{Type: fJoin, Worker: "dup", Speed: 1, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if ack, err := first.read(); err != nil || ack.Err != "" {
		t.Fatalf("first join: %+v, %v", ack, err)
	}

	err = RunWorker(context.Background(), WorkerConfig{Addr: m.Addr(), Name: "dup", Jobs: 1}, &echoHandler{})
	if !errors.Is(err, ErrJoinRefused) {
		t.Fatalf("second join of %q: got %v, want ErrJoinRefused", "dup", err)
	}
}

func TestWorkerKilledMidRunAborts(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A hand-rolled worker that dies the moment it is given a task —
	// the wire-level equivalent of kill -9 mid-round.
	c := newConn(rawDial(t, m.Addr()))
	if err := c.write(&frame{Type: fJoin, Worker: "doomed", Speed: 1, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.read(); err != nil || ack.Err != "" {
		t.Fatalf("join: %+v, %v", ack, err)
	}
	go func() {
		for {
			f, err := c.read()
			if err != nil {
				return
			}
			if f.Type == fSpawn {
				c.close() // dies holding the task
				return
			}
		}
	}()

	progress := make(chan int, 16)
	_, err = m.Run(pvm.Options{Seed: 1, Spawner: echoFactory}, func(env pvm.Env) {
		id := env.SpawnSpec("echo0", 1, pvm.Spec{
			Kind: kindEcho, Data: echoSpec{Parent: env.Self(), Bias: 1},
		})
		env.Send(id, tagPing, 41)
		progress <- 1
		env.Recv(tagPong) // never answered: the worker is gone
		progress <- 2
	})
	if !errors.Is(err, pvm.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if got := len(progress); got != 1 {
		t.Errorf("root made %d progress steps, want 1 (blocked Recv must unwind, not complete)", got)
	}
	if err := m.Finish(nil); err != nil {
		t.Logf("finish after abort: %v", err)
	}
}

func TestReconnectBackoff(t *testing.T) {
	// Grab an address with nothing listening, start the worker first,
	// then bring the master up: the daemon's backoff loop must find it.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	h := &echoHandler{}
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{Addr: addr, Name: "late", Jobs: 1}, h)
	}()
	time.Sleep(300 * time.Millisecond) // let a few dials fail

	m, err := Listen(MasterConfig{Addr: addr, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	total := runEcho(t, m, 2, nil)
	if want := 100 + 101; total != want {
		t.Errorf("total = %d, want %d", total, want)
	}
	m.Finish(nil)
	if err := <-done; err != nil {
		t.Errorf("worker: %v", err)
	}
}

func TestCooperativeCancelDrainsCleanly(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, wait := startWorkers(t, m.Addr(), 1, []float64{1}, pollFactory)

	ctx, cancel := context.WithCancel(context.Background())
	sawCancel := false
	_, err = m.Run(pvm.Options{Seed: 3, Context: ctx, Spawner: pollFactory}, func(env pvm.Env) {
		id := env.SpawnSpec("poll0", 1, pvm.Spec{
			Kind: kindPoll, Data: echoSpec{Parent: env.Self()},
		})
		cancel()
		// The remote task watches Cancelled() and reports back; the run
		// then drains normally — no abort.
		m := env.Recv(tagPong)
		sawCancel = m.Data.(int) == 1
		_ = id
	})
	if err != nil {
		t.Fatalf("cancelled run must drain cleanly, got %v", err)
	}
	if !sawCancel {
		t.Error("remote task never observed the cancellation")
	}
	m.Finish(nil)
	wait()
}

func TestBoundedWorkerGivesUpWhenMasterDies(t *testing.T) {
	// A Jobs=1 worker whose master vanishes before any job ran must
	// return an error instead of redialing the dead address forever.
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(),
			WorkerConfig{Addr: m.Addr(), Name: "orphan", Jobs: 1, MaxBackoff: 200 * time.Millisecond},
			&echoHandler{})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(m.Nodes()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never joined")
		}
		time.Sleep(10 * time.Millisecond)
	}
	m.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("orphaned bounded worker returned nil")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("orphaned bounded worker kept retrying a dead master")
	}
}

func TestLobbyDisconnectFreesName(t *testing.T) {
	// A worker that drops while idle in the lobby must be retired
	// promptly — its name freed for the daemon's reconnect and its dead
	// connection kept out of the next run.
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	c := newConn(rawDial(t, m.Addr()))
	if err := c.write(&frame{Type: fJoin, Worker: "flaky", Speed: 1, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.read(); err != nil || ack.Err != "" {
		t.Fatalf("join: %+v, %v", ack, err)
	}
	c.close() // network blip before any job starts

	// The same name must be able to re-register once the master notices
	// the dead connection (milliseconds on loopback).
	deadline := time.Now().Add(10 * time.Second)
	for {
		c2 := newConn(rawDial(t, m.Addr()))
		if err := c2.write(&frame{Type: fJoin, Worker: "flaky", Speed: 1, Capacity: 1}); err != nil {
			t.Fatal(err)
		}
		ack, err := c2.read()
		if err != nil {
			t.Fatalf("rejoin: %v", err)
		}
		if ack.Err == "" {
			c2.close() // rejoined under the previously held name
			return
		}
		c2.close()
		if time.Now().After(deadline) {
			t.Fatalf("name still held after lobby disconnect: %s", ack.Err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestBoundedWorkerReturnsAfterAbortedJob(t *testing.T) {
	// When a sibling worker dies and the run aborts, a Jobs=1 daemon's
	// job has ended for good — it must return the abort error, not
	// redial the closed master forever.
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	survivor := make(chan error, 1)
	go func() {
		survivor <- RunWorker(context.Background(),
			WorkerConfig{Addr: m.Addr(), Name: "survivor", Jobs: 1, MaxBackoff: 200 * time.Millisecond},
			&echoHandler{})
	}()

	// The doomed sibling joins raw and dies on its first task.
	c := newConn(rawDial(t, m.Addr()))
	if err := c.write(&frame{Type: fJoin, Worker: "doomed", Speed: 1, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.read(); err != nil || ack.Err != "" {
		t.Fatalf("join: %+v, %v", ack, err)
	}
	go func() {
		for {
			f, err := c.read()
			if err != nil {
				return
			}
			if f.Type == fSpawn {
				c.close()
				return
			}
		}
	}()

	_, err = m.Run(pvm.Options{Seed: 5, Spawner: echoFactory}, func(env pvm.Env) {
		// One echo per worker node; the doomed one kills the run.
		a := env.SpawnSpec("echo0", 1, pvm.Spec{Kind: kindEcho, Data: echoSpec{Parent: env.Self()}})
		b := env.SpawnSpec("echo1", 2, pvm.Spec{Kind: kindEcho, Data: echoSpec{Parent: env.Self()}})
		env.Send(a, tagPing, 1)
		env.Send(b, tagPing, 2)
		env.Recv(tagPong)
		env.Recv(tagPong)
	})
	if !errors.Is(err, pvm.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	m.Finish(nil)
	select {
	case err := <-survivor:
		if err == nil {
			t.Error("surviving bounded worker returned nil for an aborted job")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("surviving bounded worker hung after the job aborted")
	}
}

func TestWorkerCtxCancelWhileConnected(t *testing.T) {
	// A daemon parked on an idle master (joined, no job yet) must honor
	// context cancellation promptly, not only between sessions.
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{Addr: m.Addr(), Name: "idle", Jobs: 0}, &echoHandler{})
	}()
	time.Sleep(200 * time.Millisecond) // let it join and block reading
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RunWorker = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWorker ignored the cancelled context while connected")
	}
}

// TestExitWatchToleratesWorkerLoss is the transport-level loss
// tolerance contract: when every task a dying worker hosted is watched
// (pvm.NotifyExit), the run must NOT abort — the watchers receive
// pvm.TagExit notifications and the run drains to a clean finish on
// the survivors.
func TestExitWatchToleratesWorkerLoss(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Worker 1: a real daemon that survives the whole job.
	_, wait := startWorkers(t, m.Addr(), 1, []float64{1}, nil)

	// Worker 2: hand-rolled; it accepts the spawn, then dies on the
	// first message sent to its task — a kill -9 mid-round.
	c := newConn(rawDial(t, m.Addr()))
	if err := c.write(&frame{Type: fJoin, Worker: "doomed", Speed: 1, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.read(); err != nil || ack.Err != "" {
		t.Fatalf("join: %+v, %v", ack, err)
	}
	go func() {
		for {
			f, err := c.read()
			if err != nil {
				return
			}
			if f.Type == fMsg {
				c.close() // dies holding a watched task
				return
			}
		}
	}()

	var exitFrom pvm.TaskID
	total := 0
	_, err = m.Run(pvm.Options{Seed: 2, Spawner: echoFactory}, func(env pvm.Env) {
		// "w0" joined first (startWorkers) or second — place by name:
		// find the doomed node's slot by spawning the victim wherever the
		// registry put it. Slots: 1 and 2; the victim is wherever writing
		// a message kills the connection, so spawn one echo per worker
		// and watch only the doomed one's.
		var victim, survivorTask pvm.TaskID
		for slot := 1; slot <= 2; slot++ {
			id := env.SpawnSpec(fmt.Sprintf("echo%d", slot), slot, pvm.Spec{
				Kind: kindEcho, Data: echoSpec{Parent: env.Self(), Bias: 100},
			})
			pvm.NotifyExit(env, id)
			if slot == 1 {
				victim = id
			} else {
				survivorTask = id
			}
		}
		// Ping both; one of them is hosted by the doomed worker, which
		// dies on receipt. The other answers.
		env.Send(victim, tagPing, 1)
		env.Send(survivorTask, tagPing, 2)
		got := 0
		for got < 2 {
			msg := env.Recv(tagPong, pvm.TagExit)
			got++
			if msg.Tag == pvm.TagExit {
				exitFrom = msg.From
				continue
			}
			total += msg.Data.(int)
		}
	})
	if err != nil {
		t.Fatalf("watched worker loss aborted the run: %v", err)
	}
	if exitFrom == 0 {
		t.Error("no TagExit notification delivered")
	}
	if total == 0 {
		t.Error("surviving worker's pong never arrived")
	}
	if err := m.Finish(testSummary{Total: total}); err != nil {
		t.Errorf("finish: %v", err)
	}
	wait()
}

// TestUnwatchedLossStillAborts pins the static behavior: without a
// registered watch, a lost worker aborts the run exactly as before the
// scheduler existed.
func TestUnwatchedLossStillAborts(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	c := newConn(rawDial(t, m.Addr()))
	if err := c.write(&frame{Type: fJoin, Worker: "doomed", Speed: 1, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.read(); err != nil || ack.Err != "" {
		t.Fatalf("join: %+v, %v", ack, err)
	}
	go func() {
		for {
			f, err := c.read()
			if err != nil {
				return
			}
			if f.Type == fMsg {
				c.close()
				return
			}
		}
	}()

	_, err = m.Run(pvm.Options{Seed: 3, Spawner: echoFactory}, func(env pvm.Env) {
		id := env.SpawnSpec("echo0", 1, pvm.Spec{
			Kind: kindEcho, Data: echoSpec{Parent: env.Self(), Bias: 1},
		})
		env.Send(id, tagPing, 41)
		env.Recv(tagPong)
	})
	if !errors.Is(err, pvm.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted for an unwatched loss", err)
	}
	m.Finish(nil)
}

// TestElasticAbsorbsLateJoiner covers elastic membership: a worker
// joining after the run started is claimed for the running job as
// spare capacity — new slots on the ring that later spawns can land
// on — instead of idling in the lobby.
func TestElasticAbsorbsLateJoiner(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, waitFirst := startWorkers(t, m.Addr(), 1, []float64{1}, nil)

	lateStarted := make(chan struct{})
	lateDone := make(chan error, 1)
	go func() {
		<-lateStarted
		lateDone <- RunWorker(context.Background(),
			WorkerConfig{Addr: m.Addr(), Name: "late", Speed: 2, Capacity: 1, Jobs: 1},
			&echoHandler{})
	}()

	total := 0
	opts := pvm.Options{Seed: 4, Spawner: echoFactory, Elastic: true}
	_, err = m.Run(opts, func(env pvm.Env) {
		// Phase 1: normal echo on the original worker.
		a := env.SpawnSpec("echo0", 1, pvm.Spec{
			Kind: kindEcho, Data: echoSpec{Parent: env.Self(), Bias: 100},
		})
		env.Send(a, tagPing, 1)
		total += env.Recv(tagPong).Data.(int)

		// Phase 2: a late worker joins mid-run and must be absorbed.
		close(lateStarted)
		deadline := time.Now().Add(10 * time.Second)
		for len(m.Nodes()) < 2 {
			if time.Now().After(deadline) {
				t.Error("late joiner never absorbed")
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		// The absorbed node owns the appended slot 2 (ring was master=0,
		// w0=1). A spawn aimed there must be hosted by it.
		b := env.SpawnSpec("echo1", 2, pvm.Spec{
			Kind: kindEcho, Data: echoSpec{Parent: env.Self(), Bias: 1000},
		})
		env.Send(b, tagPing, 2)
		total += env.Recv(tagPong).Data.(int)
	})
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if want := (1 + 100) + (2 + 1000); total != want {
		t.Errorf("total = %d, want %d (late worker did not host the spawned task)", total, want)
	}
	if err := m.Finish(testSummary{Total: total}); err != nil {
		t.Errorf("finish: %v", err)
	}
	waitFirst()
	select {
	case err := <-lateDone:
		if err != nil {
			t.Errorf("late worker: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("late worker did not finish")
	}
}

const kindPoll = "test.poll"

// pollFactory builds a task that waits for Cancelled() and reports it.
func pollFactory(kind string, data any) (pvm.TaskFunc, error) {
	if kind == kindEcho {
		return echoFactory(kind, data)
	}
	spec := data.(echoSpec)
	return func(env pvm.Env) {
		for i := 0; i < 10_000; i++ {
			if env.Cancelled() {
				env.Send(spec.Parent, tagPong, 1)
				return
			}
			time.Sleep(time.Millisecond)
		}
		env.Send(spec.Parent, tagPong, 0)
	}, nil
}

// TestRetroactiveExitWatchAndRespawnSlot covers the respawn substrate:
// (1) a watch registered on a task already written off with its dying
// node is answered immediately, PVM pvm_notify style — a task can die
// between its spawn and the watch its parent registers, and that loss
// must not be silently missed; (2) the
// respawn placement capability resolves to a slot backed by a live
// process, so the replacement spawn cannot land on the dead node and
// abort the run.
func TestRetroactiveExitWatchAndRespawnSlot(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A hand-rolled worker that dies on the first task message — a
	// kill -9 while hosting a watched task.
	c := newConn(rawDial(t, m.Addr()))
	if err := c.write(&frame{Type: fJoin, Worker: "doomed", Speed: 1, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.read(); err != nil || ack.Err != "" {
		t.Fatalf("join: %+v, %v", ack, err)
	}
	go func() {
		for {
			f, err := c.read()
			if err != nil {
				return
			}
			if f.Type == fMsg {
				c.close()
				return
			}
		}
	}()

	var retro bool
	var slot int
	total := 0
	_, err = m.Run(pvm.Options{Seed: 5, Spawner: echoFactory}, func(env pvm.Env) {
		victim := env.SpawnSpec("echo0", 1, pvm.Spec{
			Kind: kindEcho, Data: echoSpec{Parent: env.Self(), Bias: 100},
		})
		pvm.NotifyExit(env, victim)
		env.Send(victim, tagPing, 1)
		if msg := env.Recv(pvm.TagExit); msg.From != victim {
			t.Errorf("TagExit from %d, want %d", msg.From, victim)
		}

		// Re-arming a watch on the already-dead task must answer
		// immediately instead of never.
		pvm.NotifyExit(env, victim)
		if msg, ok := env.TryRecv(pvm.TagExit); ok && msg.From == victim {
			retro = true
		}

		// The placement capability must steer the replacement to live
		// capacity: the only live slot left is the master's own 0.
		slot = pvm.RespawnSlotOf(env, 1)
		replacement := env.SpawnSpec("echo0-r1", slot, pvm.Spec{
			Kind: kindEcho, Data: echoSpec{Parent: env.Self(), Bias: 100},
		})
		env.Send(replacement, tagPing, 2)
		total = env.Recv(tagPong).Data.(int)
	})
	if err != nil {
		t.Fatalf("watched worker loss aborted the run: %v", err)
	}
	if !retro {
		t.Error("watch on an already-lost task was not answered retroactively")
	}
	if slot != 0 {
		t.Errorf("respawn slot = %d, want 0 (the only live slot)", slot)
	}
	if total != 102 {
		t.Errorf("replacement pong = %d, want 102", total)
	}
	m.Finish(nil)
}

// startFleet launches n unbounded worker daemons (serving jobs until
// the returned stop func cancels them) for lease tests.
func startFleet(t *testing.T, addr string, n int) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			//nolint:errcheck // the fleet ends by cancellation
			RunWorker(ctx, WorkerConfig{Addr: addr, Name: fmt.Sprintf("fleet%d", i)}, &echoHandler{})
		}(i)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestLeaseConcurrentJobsDisjoint is the serving-mode isolation
// contract: two leases claim disjoint worker subsets, host two runs
// concurrently over one master, and return their workers — connections
// intact — for the fleet to be leased again.
func TestLeaseConcurrentJobsDisjoint(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	stop := startFleet(t, m.Addr(), 4)
	defer stop()
	waitFree(t, m, 4)

	l1, err := m.Lease(2)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := m.Lease(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lease(1); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("lease beyond the fleet = %v, want ErrNoCapacity", err)
	}
	seen := map[string]bool{}
	for _, l := range []*Lease{l1, l2} {
		names := l.Workers()
		if len(names) != 2 {
			t.Fatalf("lease holds %d workers, want 2", len(names))
		}
		for _, name := range names {
			if seen[name] {
				t.Fatalf("worker %q leased twice", name)
			}
			seen[name] = true
		}
	}

	// Host both runs at once; each must complete independently.
	type outcome struct {
		total int
		err   error
	}
	results := make(chan outcome, 2)
	for _, l := range []*Lease{l1, l2} {
		go func(l *Lease) {
			total, err := runEchoErr(l, 4, nil)
			if ferr := l.Finish(testSummary{Total: total}); ferr != nil && err == nil {
				err = ferr
			}
			results <- outcome{total, err}
		}(l)
	}
	want := 100 + 101 + 102 + 103
	for i := 0; i < 2; i++ {
		got := <-results
		if got.err != nil {
			t.Fatalf("leased run: %v", got.err)
		}
		if got.total != want {
			t.Errorf("leased run total = %d, want %d", got.total, want)
		}
	}

	// Finish returned every worker to the lobby; the fleet is reusable.
	waitFree(t, m, 4)
	l3, err := m.Lease(4)
	if err != nil {
		t.Fatal(err)
	}
	if total := runEcho(t, l3, 5, nil); total != want+104 {
		t.Errorf("second-generation run total = %d, want %d", total, want+104)
	}
	if err := l3.Finish(nil); err != nil {
		t.Errorf("finish: %v", err)
	}
	waitFree(t, m, 4)
}

// TestLeaseReleaseWithoutRun covers the abandoned-lease path: a lease
// that never hosts a run must hand its workers back on Release, and
// releasing twice is harmless.
func TestLeaseReleaseWithoutRun(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	stop := startFleet(t, m.Addr(), 2)
	defer stop()
	waitFree(t, m, 2)

	l, err := m.Lease(2)
	if err != nil {
		t.Fatal(err)
	}
	if free := m.FreeWorkers(); free != 0 {
		t.Fatalf("FreeWorkers = %d with everything leased, want 0", free)
	}
	l.Release()
	l.Release()
	waitFree(t, m, 2)
	if _, err := l.Run(pvm.Options{Seed: 1}, func(pvm.Env) {}); err == nil {
		t.Error("Run on a released lease succeeded")
	}
	if total := m.TotalWorkers(); total != 2 {
		t.Errorf("TotalWorkers = %d, want 2", total)
	}
}

// TestLeaseWorkerLossIsolated kills a worker mid-run in one lease while
// a sibling lease's run is in flight: only the leasing job may abort,
// and the dead worker must not leak back into the lobby.
func TestLeaseWorkerLossIsolated(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// The doomed worker joins first so the first lease claims it (FIFO).
	c := newConn(rawDial(t, m.Addr()))
	if err := c.write(&frame{Type: fJoin, Worker: "doomed", Speed: 1, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.read(); err != nil || ack.Err != "" {
		t.Fatalf("join: %+v, %v", ack, err)
	}
	go func() {
		for {
			f, err := c.read()
			if err != nil {
				return
			}
			if f.Type == fSpawn {
				c.close() // dies holding the task
				return
			}
		}
	}()
	waitFree(t, m, 1)
	doomedLease, err := m.Lease(1)
	if err != nil {
		t.Fatal(err)
	}

	stop := startFleet(t, m.Addr(), 2)
	defer stop()
	waitFree(t, m, 2)
	healthyLease, err := m.Lease(2)
	if err != nil {
		t.Fatal(err)
	}

	healthyDone := make(chan error, 1)
	var healthyTotal int
	go func() {
		total, err := runEchoErr(healthyLease, 3, nil)
		healthyTotal = total
		if ferr := healthyLease.Finish(nil); ferr != nil && err == nil {
			err = ferr
		}
		healthyDone <- err
	}()

	_, err = runEchoErr(doomedLease, 1, nil)
	if !errors.Is(err, pvm.ErrAborted) {
		t.Fatalf("doomed lease run = %v, want ErrAborted", err)
	}
	doomedLease.Finish(nil)

	if err := <-healthyDone; err != nil {
		t.Fatalf("healthy lease run was disturbed: %v", err)
	}
	if want := 100 + 101 + 102; healthyTotal != want {
		t.Errorf("healthy run total = %d, want %d", healthyTotal, want)
	}
	// Only the two healthy workers come back; the dead one is retired.
	waitFree(t, m, 2)
	if total := m.TotalWorkers(); total != 2 {
		t.Errorf("TotalWorkers = %d after the loss, want 2", total)
	}
}

// TestWorkerDrainIdleDeregisters covers the graceful-drain satellite:
// an idle daemon told to drain announces fLeave, leaves the registry
// cleanly (name freed), and RunWorker returns nil without reconnecting.
func TestWorkerDrainIdleDeregisters(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	drain := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(),
			WorkerConfig{Addr: m.Addr(), Name: "drainer", Drain: drain}, &echoHandler{})
	}()
	waitFree(t, m, 1)
	close(drain)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drained worker returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drained worker never returned")
	}
	waitFree(t, m, 0)
	if total := m.TotalWorkers(); total != 0 {
		t.Errorf("TotalWorkers = %d after drain, want 0", total)
	}
}

// TestWorkerDrainMidJob drains a worker while it hosts a task of a
// static run: the master writes the task off deliberately (here
// unwatched, so the run aborts exactly like a loss) and the draining
// daemon still exits cleanly with nil.
func TestWorkerDrainMidJob(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	drain := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(),
			WorkerConfig{Addr: m.Addr(), Name: "drainer", Drain: drain}, &echoHandler{})
	}()

	_, err = m.Run(pvm.Options{Seed: 1, Spawner: echoFactory}, func(env pvm.Env) {
		// The echo task blocks awaiting a ping that never comes, so it is
		// guaranteed unfinished — and unwatched — when the drain arrives.
		env.SpawnSpec("echo0", 1, pvm.Spec{
			Kind: kindEcho, Data: echoSpec{Parent: env.Self(), Bias: 1},
		})
		close(drain) // SIGTERM arrives while the task is in flight
		env.Recv(tagPong)
	})
	if !errors.Is(err, pvm.ErrAborted) {
		t.Fatalf("run = %v, want ErrAborted (unwatched drained task)", err)
	}
	m.Finish(nil)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("draining worker returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("draining worker never returned")
	}
}
