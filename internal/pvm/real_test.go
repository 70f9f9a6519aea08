package pvm

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// runRealWithin runs root in process and fails the test if the run
// does not return within limit, or leaves goroutines behind.
func runRealWithin(t *testing.T, limit time.Duration, opts Options, root TaskFunc) {
	t.Helper()
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := RunReal(opts, root)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(limit):
		t.Fatalf("RunReal did not return within %v", limit)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before the run, %d after", before, after)
	}
}

// coSpec spawns fn as a coroutine on the spawner's thread.
func coSpec(fn TaskFunc) Spec { return Spec{Fn: fn, Colocate: true} }

// TestCoscheduledWorkSleepsOverlap: co-scheduled tasks share a thread,
// but an emulated Work charge only sets the earliest time a task may
// resume, so four tasks sleeping 20 ms each finish together rather than
// one after another.
func TestCoscheduledWorkSleepsOverlap(t *testing.T) {
	const work = 20 * time.Millisecond
	elapsed := func(tasks int) time.Duration {
		var d time.Duration
		runRealWithin(t, 10*time.Second, Options{RealWorkScale: 1}, func(env Env) {
			start := time.Now()
			for i := 0; i < tasks; i++ {
				env.SpawnSpec("w", 0, coSpec(func(e Env) {
					e.Work(work.Seconds())
					e.Send(0, tagData, nil)
				}))
			}
			for i := 0; i < tasks; i++ {
				env.Recv(tagData)
			}
			d = time.Since(start)
		})
		return d
	}
	one, four := elapsed(1), elapsed(4)
	if one < work {
		t.Fatalf("one task finished in %v, before its %v Work charge", one, work)
	}
	if four > one*5/2 {
		t.Errorf("four co-scheduled 20 ms sleeps took %v, one took %v: the sleeps did not overlap", four, one)
	}
}

// TestCoscheduledWorkAlternates: without speed emulation Work still
// ends a co-scheduled task's turn, so two tasks working in a loop take
// turns step by step.
func TestCoscheduledWorkAlternates(t *testing.T) {
	var order []string // appended only on the root's thread
	runRealWithin(t, 10*time.Second, Options{}, func(env Env) {
		for _, name := range []string{"a", "b"} {
			env.SpawnSpec(name, 0, coSpec(func(e Env) {
				for i := 0; i < 3; i++ {
					order = append(order, name)
					e.Work(1)
				}
				e.Send(0, tagData, nil)
			}))
		}
		env.Recv(tagData)
		env.Recv(tagData)
	})
	if want := []string{"a", "b", "a", "b", "a", "b"}; !slices.Equal(order, want) {
		t.Errorf("turn order %v, want %v", order, want)
	}
}

// TestCrossThreadSendWakesCoscheduledTask: a co-scheduled task blocked
// in Recv while its whole thread is parked is woken by a message from a
// task on another thread.
func TestCrossThreadSendWakesCoscheduledTask(t *testing.T) {
	runRealWithin(t, 10*time.Second, Options{}, func(env Env) {
		co := env.SpawnSpec("co", 0, coSpec(func(e Env) {
			m := e.Recv(tagPing)
			e.Send(0, tagPong, m.Data)
		}))
		th := env.(*rTask).th
		env.Spawn("remote", 0, func(e Env) {
			for !parked(th) {
				time.Sleep(100 * time.Microsecond)
			}
			e.Send(co, tagPing, 42)
		})
		if got := env.Recv(tagPong).Data; got != 42 {
			t.Errorf("co-scheduled task relayed %v, want 42", got)
		}
	})
}

// TestRemoteWakeWaitsForThreadToSettle: a message from another thread
// lets its receiver run only once nothing else on the receiver's thread
// can, so it takes effect at the same point of the thread's schedule
// however early it arrives.
func TestRemoteWakeWaitsForThreadToSettle(t *testing.T) {
	const steps = 100_000
	var done atomic.Int64
	runRealWithin(t, 30*time.Second, Options{}, func(env Env) {
		co := env.SpawnSpec("co", 0, coSpec(func(e Env) {
			for i := 0; i < steps; i++ {
				done.Add(1)
				e.Work(1)
			}
			e.Recv(tagStop)
		}))
		env.Spawn("remote", 0, func(e Env) {
			for done.Load() == 0 {
				runtime.Gosched()
			}
			e.Send(0, tagData, nil)
		})
		env.Recv(tagData)
		if n := done.Load(); n != steps {
			t.Errorf("the root resumed after %d of the co-scheduled task's %d steps, want all of them", n, steps)
		}
		env.Send(co, tagStop, nil)
	})
}

// parked reports whether th waits for a wake-up.
func parked(th *rThread) bool {
	th.mu.Lock()
	defer th.mu.Unlock()
	return th.idle
}

// TestCrossThreadTrafficBetweenCoscheduledTasks: co-scheduled tasks on
// several threads, whose first tasks have already returned, message
// each other at once; every message arrives.
func TestCrossThreadTrafficBetweenCoscheduledTasks(t *testing.T) {
	const threads, perThread, msgs = 3, 2, 50
	const tasks = threads * perThread
	runRealWithin(t, 30*time.Second, Options{}, func(env Env) {
		for h := 0; h < threads; h++ {
			env.Spawn("host", 0, func(e Env) {
				for k := 0; k < perThread; k++ {
					id := e.SpawnSpec("co", 0, coSpec(func(c Env) {
						peers := c.Recv(tagPing).Data.([]TaskID)
						for i := 0; i < msgs; i++ {
							for _, p := range peers {
								if p != c.Self() {
									c.Send(p, tagData, nil)
								}
							}
							c.Work(1)
						}
						for i := 0; i < msgs*(tasks-1); i++ {
							c.Recv(tagData)
						}
						c.Send(0, tagPong, nil)
					}))
					e.Send(0, tagStop, id)
				}
			})
		}
		peers := make([]TaskID, 0, tasks)
		for len(peers) < tasks {
			peers = append(peers, env.Recv(tagStop).Data.(TaskID))
		}
		for _, p := range peers {
			env.Send(p, tagPing, peers)
		}
		for range peers {
			env.Recv(tagPong)
		}
	})
}

// TestCoscheduledTasksOutliveSpawner: a thread's first task may return
// before the coroutines it spawned; the thread keeps running them to
// completion, and RunReal returns once they are done.
func TestCoscheduledTasksOutliveSpawner(t *testing.T) {
	const rounds = 10
	var pings, pongs int
	runRealWithin(t, 10*time.Second, Options{}, func(env Env) {
		pong := env.SpawnSpec("pong", 0, coSpec(func(e Env) {
			for i := 0; i < rounds; i++ {
				m := e.Recv(tagPing)
				pongs++
				e.Send(m.From, tagPong, nil)
			}
		}))
		env.SpawnSpec("ping", 0, coSpec(func(e Env) {
			for i := 0; i < rounds; i++ {
				e.Send(pong, tagPing, nil)
				e.Work(1)
				e.Recv(tagPong)
				pings++
			}
		}))
	})
	if pings != rounds || pongs != rounds {
		t.Errorf("after RunReal: %d pings and %d pongs, want %d each", pings, pongs, rounds)
	}
}
