package vtime

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// checkNoLeak fails t if there are more goroutines than before: a
// process coroutine the kernel started has not ended. Fewer is fine, a
// goroutine left by an earlier test may have exited meanwhile.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for i := 0; n > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Fatalf("%d goroutines after Run, %d before: a process was left parked", n, before)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at1, at2 Time
	k.Spawn("a", func(p *Proc) {
		p.Sleep(1.5)
		at1 = p.Now()
		p.Sleep(0.5)
		at2 = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 1.5 || at2 != 2.0 {
		t.Fatalf("times: %v %v, want 1.5 2.0", at1, at2)
	}
	if k.Now() != 2.0 {
		t.Fatalf("final clock %v", k.Now())
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(1.0)
				log = append(log, "a")
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Sleep(1.5)
				log = append(log, "b")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	// a wakes at 1,2,3; b wakes at 1.5,3. At t=3 b's event was scheduled
	// first (at t=1.5) so it fires first.
	want := []string{"a", "b", "a", "b", "a"}
	for trial := 0; trial < 10; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("log %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: log %v, want %v", trial, got, want)
			}
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.After(1.0, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestSuspendWake(t *testing.T) {
	k := NewKernel()
	var woken Time
	var p *Proc
	p = k.Spawn("sleeper", func(p *Proc) {
		p.Suspend()
		woken = p.Now()
	})
	k.After(3.0, func() { k.Wake(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3.0 {
		t.Fatalf("woken at %v, want 3.0", woken)
	}
	if len(k.Stalled()) != 0 {
		t.Fatalf("stalled: %v", k.Stalled())
	}
}

func TestSpuriousWakeDoesNotBreakSleep(t *testing.T) {
	k := NewKernel()
	var end Time
	p := k.Spawn("w", func(p *Proc) {
		p.Sleep(5.0)
		end = p.Now()
	})
	// Wake aimed at a *sleeping* process must be ignored.
	k.After(1.0, func() { k.Wake(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 5.0 {
		t.Fatalf("sleep ended at %v, want 5.0 (spurious wake broke it)", end)
	}
}

func TestStaleSleepTimerIgnored(t *testing.T) {
	// A process that sleeps, is woken by its timer, then suspends must
	// not be woken by anything but an explicit Wake.
	k := NewKernel()
	var woken Time
	var p *Proc
	p = k.Spawn("x", func(p *Proc) {
		p.Sleep(1.0)
		p.Suspend()
		woken = p.Now()
	})
	k.After(10.0, func() { k.Wake(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 10.0 {
		t.Fatalf("woken at %v, want 10.0", woken)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var childTime Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(2.0)
		p.k.Spawn("child", func(c *Proc) {
			c.Sleep(1.0)
			childTime = c.Now()
		})
		p.Sleep(5.0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 3.0 {
		t.Fatalf("child finished at %v, want 3.0", childTime)
	}
}

func TestAbandonedProcessKilled(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	unwound := false
	k.Spawn("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		p.Suspend() // nobody wakes us
	})
	k.Spawn("done", func(p *Proc) {
		p.Sleep(1.0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	stalled := k.Stalled()
	if len(stalled) != 1 || stalled[0] != "stuck" {
		t.Fatalf("stalled = %v, want [stuck]", stalled)
	}
	if !unwound {
		t.Fatal("killed process did not run its deferred calls")
	}
	checkNoLeak(t, before)
}

func TestMaxEvents(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	k.MaxEvents = 100
	k.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(0.001)
		}
	})
	if err := k.Run(); err != ErrEventLimit {
		t.Fatalf("want ErrEventLimit, got %v", err)
	}
	checkNoLeak(t, before)
}

func TestProcessPanicPropagates(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	var unwound []string
	k.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		p.Sleep(10.0)
	})
	k.Spawn("suspended", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		p.Suspend()
	})
	k.Spawn("bomb", func(p *Proc) {
		p.Sleep(1.0)
		panic("boom")
	})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("process panic did not propagate")
			}
			if msg, _ := r.(string); !strings.Contains(msg, `"bomb"`) || !strings.Contains(msg, "boom") {
				t.Fatalf("panic value %v does not name the process and its panic", r)
			}
		}()
		_ = k.Run()
	}()
	if len(unwound) != 2 || unwound[0] != "sleeper" || unwound[1] != "suspended" {
		t.Fatalf("unwound %v, want [sleeper suspended]", unwound)
	}
	checkNoLeak(t, before)
}

// A panic raised while a blocked process is killed at shutdown still
// propagates, and the processes after it are unwound first.
func TestPanicWhileKilledPropagates(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	unwound := false
	k.Spawn("bad", func(p *Proc) {
		defer func() { panic("cleanup failed") }()
		p.Suspend()
	})
	k.Spawn("good", func(p *Proc) {
		defer func() { unwound = true }()
		p.Suspend()
	})
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "cleanup failed") {
				t.Fatalf("panic value %q, want the unwinding panic", msg)
			}
		}()
		_ = k.Run()
	}()
	if !unwound {
		t.Fatal("process after the panicking one was not unwound")
	}
	checkNoLeak(t, before)
}

// runtime.Goexit in a process body (what t.FailNow does) ends the
// goroutine that called Run, as if the body had run on it, once every
// other started process has been unwound. Run does not return.
func TestProcessGoexitEndsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	var unwound []string
	k.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		p.Sleep(10.0)
	})
	k.Spawn("quitter", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		p.Sleep(1.0)
		runtime.Goexit()
	})
	k.Spawn("suspended", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		p.Suspend()
	})
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		_ = k.Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned after a process called runtime.Goexit")
	}
	want := []string{"quitter", "sleeper", "suspended"}
	if strings.Join(unwound, " ") != strings.Join(want, " ") {
		t.Fatalf("unwound %v, want %v", unwound, want)
	}
	if got := strings.Join(k.Stalled(), " "); got != "sleeper quitter suspended" {
		t.Fatalf("stalled = %q, want every process", got)
	}
	checkNoLeak(t, before)
	// The kernel is usable again: a drained Run is a no-op.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDurationsClamp(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("n", func(p *Proc) {
		p.Sleep(-5)
		at = p.Now()
	})
	k.After(-1, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("negative sleep advanced clock to %v", at)
	}
}

func TestRunTwiceAfterDrain(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) { p.Sleep(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Re-running a drained kernel is a no-op, not a crash.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcesses(t *testing.T) {
	k := NewKernel()
	const n = 200
	count := 0
	for i := 0; i < n; i++ {
		d := Time(i%7) * 0.1
		k.Spawn("p", func(p *Proc) {
			p.Sleep(d)
			count++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("ran %d of %d processes", count, n)
	}
}

// sleepScript is a small multi-process script mixing run-on sleeps,
// queued sleeps, a wake and a suspension. Every line of its trace is
// "name@time", written as the process resumes from a Sleep or Suspend.
//
// Worked out with every timer queued: A, B and C start at 0 (events
// 1-3). A's timer at 1 (4) resumes A, whose next sleep to 2 (5) is due
// before B's timer at 10 and so runs on. A then wakes C and sleeps to
// 3, behind the wake at 2 (6), which resumes C; C's sleep to 2.5 (7)
// runs on. A's timer at 3 (8) resumes A, whose sleep to 4 (9) runs on,
// and B's timer at 10 (10) ends the run: 10 events, queued or not.
// The tests pin the trace and the counts, so they hold for a kernel
// that queues every timer as well.
func sleepScript(k *Kernel) *[]string {
	var trace []string
	note := func(p *Proc) { trace = append(trace, fmt.Sprintf("%s@%v", p.Name(), p.Now())) }
	var c *Proc
	woken := false
	k.Spawn("A", func(p *Proc) {
		p.Sleep(1)
		note(p)
		p.Sleep(1)
		note(p)
		woken = true
		k.Wake(c)
		p.Sleep(1)
		note(p)
		p.Sleep(1)
		note(p)
	})
	k.Spawn("B", func(p *Proc) {
		p.Sleep(10)
		note(p)
	})
	c = k.Spawn("C", func(p *Proc) {
		for !woken {
			p.Suspend()
		}
		note(p)
		p.Sleep(0.5)
		note(p)
	})
	return &trace
}

// TestSleepRunOnKeepsEventCount: sleeps that run on in place count
// exactly the events their queued timers would have, and resume at the
// same times in the same order.
func TestSleepRunOnKeepsEventCount(t *testing.T) {
	k := NewKernel()
	trace := sleepScript(k)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "A@1 A@2 C@2 C@2.5 A@3 A@4 B@10"
	if got := strings.Join(*trace, " "); got != want {
		t.Errorf("trace %q, want %q", got, want)
	}
	if k.Events() != 10 || k.Now() != 10 {
		t.Errorf("Events %d at %v, want 10 at 10", k.Events(), k.Now())
	}
}

// TestSleepYieldsToEventDueAtWakeTime: an event already due at exactly
// now+d was scheduled before the sleeper's timer, so it fires first.
func TestSleepYieldsToEventDueAtWakeTime(t *testing.T) {
	for _, tc := range []struct {
		name  string
		d     Time
		setup func(k *Kernel, trace *[]string)
	}{
		{"After callback", 1, func(k *Kernel, trace *[]string) {
			k.After(1, func() { *trace = append(*trace, "after@1") })
		}},
		{"other sleeper", 1, func(k *Kernel, trace *[]string) {
			k.Spawn("other", func(p *Proc) {
				p.Sleep(1)
				*trace = append(*trace, "other@1")
			})
		}},
		{"zero sleep behind a wake", 0, func(k *Kernel, trace *[]string) {
			waiter := k.Spawn("waiter", func(p *Proc) {
				p.Suspend()
				*trace = append(*trace, "waiter@0")
			})
			k.Spawn("waker", func(p *Proc) { k.Wake(waiter) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			var trace []string
			k.Spawn("setup", func(p *Proc) { tc.setup(k, &trace) })
			k.Spawn("sleeper", func(p *Proc) {
				// Let the processes the setup spawned start first, so what
				// they schedule is queued before the sleep.
				p.Sleep(0)
				p.Sleep(tc.d)
				trace = append(trace, fmt.Sprintf("sleeper@%v", p.Now()))
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if len(trace) != 2 || !strings.HasPrefix(trace[1], "sleeper@") {
				t.Fatalf("trace %v: the sleeper overtook an event due at its wake time", trace)
			}
		})
	}
}

// TestMaxEventsStopsRunOnSleeps: MaxEvents stops the run at the same
// event count and clock whether the limiting event is a queued event or
// a sleep that runs on (the sleepScript's events 5, 7 and 9).
func TestMaxEventsStopsRunOnSleeps(t *testing.T) {
	// wantNow[m] is the clock when MaxEvents = m stops sleepScript.
	wantNow := []Time{1: 0, 2: 0, 3: 0, 4: 1, 5: 2, 6: 2, 7: 2.5, 8: 3, 9: 4}
	for m := 1; m < len(wantNow); m++ {
		k := NewKernel()
		k.MaxEvents = uint64(m)
		sleepScript(k)
		if err := k.Run(); err != ErrEventLimit {
			t.Fatalf("MaxEvents %d: want ErrEventLimit, got %v", m, err)
		}
		if k.Events() != uint64(m) || k.Now() != wantNow[m] {
			t.Errorf("MaxEvents %d: stopped after %d events at %v, want %d at %v",
				m, k.Events(), k.Now(), m, wantNow[m])
		}
	}

	// A lone sleeper runs on at every sleep: the start is event 1 and
	// each completed sleep one more, so the limit leaves it mid-sleep
	// after m-1 sleeps.
	const m = 100
	k := NewKernel()
	k.MaxEvents = m
	sleeps := 0
	k.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(0.25)
			sleeps++
		}
	})
	if err := k.Run(); err != ErrEventLimit {
		t.Fatalf("want ErrEventLimit, got %v", err)
	}
	if k.Events() != m || sleeps != m-1 || k.Now() != 0.25*(m-1) {
		t.Errorf("stopped after %d events, %d sleeps at %v; want %d, %d at %v",
			k.Events(), sleeps, k.Now(), m, m-1, 0.25*(m-1))
	}
}

// TestSleepAllocFree: after warm-up, a Sleep allocates nothing, whether
// it runs on (a lone sleeper) or queues its timer and switches to
// another process (two sleepers alternating).
func TestSleepAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		partner bool
	}{{"run on", false}, {"switch", true}} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			done := false
			var allocs float64
			k.Spawn("measured", func(p *Proc) {
				for range 10 {
					p.Sleep(1)
				}
				allocs = testing.AllocsPerRun(200, func() { p.Sleep(1) })
				done = true
			})
			if tc.partner {
				k.Spawn("partner", func(p *Proc) {
					p.Sleep(0.5)
					for !done {
						p.Sleep(1)
					}
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("Sleep allocates %v times", allocs)
			}
		})
	}
}

// BenchmarkHandoff measures the kernel's own cost per event: "pingpong"
// hands control between two processes through Suspend and Kernel.Wake,
// "sleep" alternates two processes charging compute time with Sleep, so
// every timer is queued and resumes the other, and "sleep-runon" is one
// process sleeping alone, so every Sleep runs on without a switch. One
// op is one event; allocs/event counts every allocation over the run.
func BenchmarkHandoff(b *testing.B) {
	b.Run("pingpong", func(b *testing.B) {
		k := NewKernel()
		var procs [2]*Proc
		turn, left := 0, b.N
		for me := range procs {
			procs[me] = k.Spawn("p", func(p *Proc) {
				for {
					for turn != me {
						p.Suspend()
					}
					turn = 1 - me
					k.Wake(procs[turn])
					if left == 0 {
						return
					}
					left--
				}
			})
		}
		runHandoff(b, k)
	})
	b.Run("sleep", func(b *testing.B) {
		k := NewKernel()
		for w := range 2 {
			k.Spawn("w", func(p *Proc) {
				// Offset the second sleeper by half a step, so the other's
				// timer is always due first.
				p.Sleep(0.0005 * Time(w))
				for i := w; i < b.N; i += 2 {
					p.Sleep(0.001)
				}
			})
		}
		runHandoff(b, k)
	})
	b.Run("sleep-runon", func(b *testing.B) {
		k := NewKernel()
		k.Spawn("w", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(0.001)
			}
		})
		runHandoff(b, k)
	})
}

func runHandoff(b *testing.B, k *Kernel) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(k.Events()), "allocs/event")
	if len(k.Stalled()) != 0 {
		b.Fatalf("stalled: %v", k.Stalled())
	}
}
