package nettrans

import (
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"
	"time"

	"pts/internal/pvm"
)

// The placement tests' toy tasks: a probe reports where it landed and
// the speed it sees for every machine index; a "tsw" spawns a "clw" on
// the next machine index and ping-pongs with it, the shape of the
// search protocol's hottest exchange.
const (
	kindProbe = "test.probe"
	kindTSW   = "test.tsw"
	kindCLW   = "test.clw"
)

const (
	tagProbe pvm.Tag = iota + 10
	tagRally
	tagRallyDone
)

// probeSpec parameterizes a probe: whom to report to and how many
// machine indices to look up.
type probeSpec struct {
	Parent   pvm.TaskID
	Machines int
}

// probeReport is what a probe sends home.
type probeReport struct {
	Slot   int
	Speeds []float64
}

// rallySpec parameterizes the toy TSW/CLW pair.
type rallySpec struct {
	Parent  pvm.TaskID
	Machine int // the TSW's machine; its CLW goes on Machine+1
	Rounds  int
}

func init() {
	gob.Register(probeSpec{})
	gob.Register(probeReport{})
	gob.Register(rallySpec{})
}

// speedsSeen looks up every machine index's speed through env.
func speedsSeen(env pvm.Env, machines int) []float64 {
	out := make([]float64, machines)
	for m := range out {
		out[m] = pvm.MachineSpeedOf(env, m)
	}
	return out
}

// placementFactory builds the placement tests' toy tasks wherever they
// land (master-side Spawner and worker-side factory alike).
func placementFactory(kind string, data any) (pvm.TaskFunc, error) {
	switch kind {
	case kindProbe:
		spec := data.(probeSpec)
		return func(env pvm.Env) {
			env.Send(spec.Parent, tagProbe, probeReport{Slot: env.MachineIndex(), Speeds: speedsSeen(env, spec.Machines)})
		}, nil
	case kindTSW:
		spec := data.(rallySpec)
		return func(env pvm.Env) {
			clw := env.SpawnSpec("clw", spec.Machine+1, pvm.Spec{
				Kind: kindCLW, Data: rallySpec{Parent: env.Self(), Rounds: spec.Rounds},
			})
			for i := 0; i < spec.Rounds; i++ {
				env.Send(clw, tagRally, i)
				env.Recv(tagRally)
			}
			env.Send(spec.Parent, tagRallyDone, spec.Rounds)
		}, nil
	case kindCLW:
		spec := data.(rallySpec)
		return func(env pvm.Env) {
			for i := 0; i < spec.Rounds; i++ {
				m := env.Recv(tagRally)
				env.Send(m.From, tagRally, m.Data)
			}
		}, nil
	}
	return echoFactory(kind, data)
}

// startPlacementFleet launches unbounded worker daemons hosting the
// placement toy tasks, named prefix0.. with the given speeds, and
// returns their stop func.
func startPlacementFleet(t *testing.T, addr, prefix string, speeds ...float64) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i, sp := range speeds {
		wg.Add(1)
		go func(i int, sp float64) {
			defer wg.Done()
			//nolint:errcheck // the fleet ends by cancellation
			RunWorker(ctx, WorkerConfig{Addr: addr, Name: fmt.Sprintf("%s%d", prefix, i), Speed: sp},
				&echoHandler{factory: placementFactory})
		}(i, sp)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// probeAll spawns one probe on each machine index 1..machines-1 and
// checks every report against the master's own view: the probe landed
// on ringSlot(m, total), never on the master's slot 0 while the run
// has worker slots, and sees the same speed for every index as the
// master does.
func probeAll(t *testing.T, env pvm.Env, machines, total int) {
	t.Helper()
	want := speedsSeen(env, machines)
	for m := 1; m < machines; m++ {
		env.SpawnSpec(fmt.Sprintf("probe%d-%d", total, m), m, pvm.Spec{
			Kind: kindProbe, Data: probeSpec{Parent: env.Self(), Machines: machines},
		})
		rep := env.Recv(tagProbe).Data.(probeReport)
		if wantSlot := ringSlot(m, total); rep.Slot != wantSlot {
			t.Errorf("ring of %d: machine %d landed on slot %d, want %d", total, m, rep.Slot, wantSlot)
		}
		if total > 1 && rep.Slot == 0 {
			t.Errorf("ring of %d: machine %d landed on the master's slot", total, m)
		}
		for i := range want {
			if rep.Speeds[i] != want[i] {
				t.Errorf("ring of %d: probe on machine %d sees machine %d at speed %v, the master %v",
					total, m, i, rep.Speeds[i], want[i])
			}
		}
	}
}

// TestRingSlotKeepsWorkOnWorkers pins the placement rule itself: the
// root's machine 0 is the master's slot, every other index wraps over
// the worker slots only (identity inside the ring), and a ring without
// worker slots puts everything on slot 0.
func TestRingSlotKeepsWorkOnWorkers(t *testing.T) {
	for total := 1; total <= 6; total++ {
		for m := -7; m <= 20; m++ {
			got := ringSlot(m, total)
			switch {
			case m == 0 || total == 1:
				if got != 0 {
					t.Errorf("ringSlot(%d, %d) = %d, want 0", m, total, got)
				}
			case got < 1 || got >= total:
				t.Errorf("ringSlot(%d, %d) = %d, outside the worker slots 1..%d", m, total, got, total-1)
			case m > 0 && m < total && got != m:
				t.Errorf("ringSlot(%d, %d) = %d, want the identity inside the ring", m, total, got)
			}
		}
	}
}

// TestPlacementMasterWorkerAgree runs probes over a two-worker ring and
// again after elastic absorption grows it: every index 1..k lands on a
// worker, and master and workers agree on each index's slot and speed.
func TestPlacementMasterWorkerAgree(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	stop := startPlacementFleet(t, m.Addr(), "p", 1.5, 0.5)
	defer stop()
	waitFree(t, m, 2)

	lateStop := func() {}
	defer func() { lateStop() }()
	_, err = m.Run(pvm.Options{Seed: 9, Spawner: placementFactory, Elastic: true}, func(env pvm.Env) {
		probeAll(t, env, 8, 3)

		// Grow the ring by one slot and wait until the absorption has
		// announced it to the original workers.
		lateStop = startPlacementFleet(t, m.Addr(), "late", 3)
		m.mu.Lock()
		j := m.exclusive
		m.mu.Unlock()
		deadline := time.Now().Add(10 * time.Second)
		for {
			j.mu.Lock()
			total := j.totalSlots
			j.mu.Unlock()
			if total == 4 {
				break
			}
			if time.Now().After(deadline) {
				t.Error("late joiner never absorbed")
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		j.absorbMu.Lock() // held across the fRing writes
		j.absorbMu.Unlock()
		probeAll(t, env, 8, 4)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := m.Finish(nil); err != nil {
		t.Errorf("finish: %v", err)
	}
}

// TestLeaseWithoutWorkersStaysInProcess covers a Workers: 0 lease:
// every machine index resolves to the master's slot, so the whole run
// executes in this process without a single frame.
func TestLeaseWithoutWorkersStaysInProcess(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	l, err := m.Lease(0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Run(pvm.Options{Seed: 3, Spawner: placementFactory}, func(env pvm.Env) {
		probeAll(t, env, 5, 1)
		env.SpawnSpec("tsw", 1, pvm.Spec{Kind: kindTSW, Data: rallySpec{Parent: env.Self(), Machine: 1, Rounds: 10}})
		env.Recv(tagRallyDone)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	l.j.mu.Lock()
	routed := l.j.routed
	l.j.mu.Unlock()
	if routed != 0 {
		t.Errorf("%d frames routed through a worker-less lease, want 0", routed)
	}
	if err := l.Finish(nil); err != nil {
		t.Errorf("finish: %v", err)
	}
}

// TestLeasedPairTalksOnItsWorker is the serving hot path: on a
// one-worker lease, a TSW on machine 1 and its CLW on machine 2 share
// the worker, so their exchanges never cross the master — the only
// frame it routes is the TSW's final report to the root.
func TestLeasedPairTalksOnItsWorker(t *testing.T) {
	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	stop := startPlacementFleet(t, m.Addr(), "p", 1)
	defer stop()
	waitFree(t, m, 1)
	l, err := m.Lease(1)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 50
	_, err = l.Run(pvm.Options{Seed: 3, Spawner: placementFactory}, func(env pvm.Env) {
		env.SpawnSpec("tsw", 1, pvm.Spec{Kind: kindTSW, Data: rallySpec{Parent: env.Self(), Machine: 1, Rounds: rounds}})
		if got := env.Recv(tagRallyDone).Data.(int); got != rounds {
			t.Errorf("rally reported %d rounds, want %d", got, rounds)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	l.j.mu.Lock()
	routed := l.j.routed
	l.j.mu.Unlock()
	if routed != 1 {
		t.Errorf("master routed %d frames, want 1 (the final report): TSW-CLW traffic left the worker", routed)
	}
	if err := l.Finish(nil); err != nil {
		t.Errorf("finish: %v", err)
	}
	waitFree(t, m, 1)
}
