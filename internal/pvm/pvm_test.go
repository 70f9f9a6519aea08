package pvm

import (
	"math"
	"sync/atomic"
	"testing"

	"pts/internal/cluster"
)

const (
	tagPing Tag = iota + 1
	tagPong
	tagData
	tagStop
)

func TestVirtualPingPong(t *testing.T) {
	var rounds int
	elapsed, err := RunVirtual(Options{Seed: 1}, func(env Env) {
		me := env.Self()
		child := env.Spawn("child", 0, func(c Env) {
			for {
				m := c.Recv(tagPing, tagStop)
				if m.Tag == tagStop {
					return
				}
				c.Send(m.From, tagPong, m.Data)
			}
		})
		for i := 0; i < 5; i++ {
			env.Send(child, tagPing, i)
			m := env.Recv(tagPong)
			if m.Data.(int) != i {
				t.Errorf("round %d: got %v", i, m.Data)
			}
			if m.From != child {
				t.Errorf("From = %v, want %v", m.From, child)
			}
			rounds++
		}
		env.Send(child, tagStop, nil)
		_ = me
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 5 {
		t.Fatalf("rounds = %d", rounds)
	}
	if elapsed <= 0 {
		t.Fatal("messages should take virtual time")
	}
}

func TestVirtualTagFiltering(t *testing.T) {
	_, err := RunVirtual(Options{Seed: 2}, func(env Env) {
		child := env.Spawn("c", 0, func(c Env) {
			parent := TaskID(0)
			c.Send(parent, tagData, "third")
			c.Send(parent, tagPong, "first")
			c.Send(parent, tagData, "fourth")
			c.Send(parent, tagPing, "second")
		})
		_ = child
		// Selective receive out of arrival order.
		if m := env.Recv(tagPong); m.Data.(string) != "first" {
			t.Errorf("want first, got %v", m.Data)
		}
		if m := env.Recv(tagPing); m.Data.(string) != "second" {
			t.Errorf("want second, got %v", m.Data)
		}
		if m := env.Recv(tagData); m.Data.(string) != "third" {
			t.Errorf("want third (FIFO within tag), got %v", m.Data)
		}
		if m := env.Recv(); m.Data.(string) != "fourth" {
			t.Errorf("want fourth, got %v", m.Data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTryRecv(t *testing.T) {
	_, err := RunVirtual(Options{Seed: 3}, func(env Env) {
		if _, ok := env.TryRecv(); ok {
			t.Error("TryRecv on empty inbox returned a message")
		}
		self := env.Self()
		env.Send(self, tagData, 42) // self-send
		env.Work(1e-3)              // let the delivery event fire
		m, ok := env.TryRecv(tagData)
		if !ok || m.Data.(int) != 42 {
			t.Errorf("TryRecv = %v %v", m, ok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualWorkHeterogeneous(t *testing.T) {
	// Two tasks doing identical work on machines of speed 1.0 and 0.5
	// must finish 2x apart in virtual time.
	c := cluster.Cluster{
		Machines: []cluster.Machine{
			{Name: "fast", Speed: 1.0},
			{Name: "slow", Speed: 0.5},
		},
	}
	var tFast, tSlow float64
	_, err := RunVirtual(Options{Cluster: c, Seed: 4}, func(env Env) {
		done := make(chan struct{}) // unused; tasks communicate via messages
		close(done)
		f := env.Spawn("fast", 0, func(e Env) {
			e.Work(2.0)
			tFast = e.Now()
			e.Send(0, tagStop, nil)
		})
		s := env.Spawn("slow", 1, func(e Env) {
			e.Work(2.0)
			tSlow = e.Now()
			e.Send(0, tagStop, nil)
		})
		_, _ = f, s
		env.Recv(tagStop)
		env.Recv(tagStop)
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tFast-2.0) > 1e-9 {
		t.Errorf("fast finished at %v, want 2.0", tFast)
	}
	if math.Abs(tSlow-4.0) > 1e-9 {
		t.Errorf("slow finished at %v, want 4.0", tSlow)
	}
}

func TestVirtualDeterministic(t *testing.T) {
	run := func() (float64, uint64) {
		var sum uint64
		elapsed, err := RunVirtual(Options{Cluster: cluster.Testbed12(5), Seed: 9}, func(env Env) {
			n := 6
			for i := 0; i < n; i++ {
				env.Spawn("w", i, func(e Env) {
					v := uint64(0)
					for j := 0; j < 50; j++ {
						e.Work(1e-3)
						v = v*31 + e.Rand().Uint64()%1000
					}
					e.Send(0, tagData, v)
				})
			}
			for i := 0; i < n; i++ {
				m := env.Recv(tagData)
				sum += m.Data.(uint64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed, sum
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("virtual runs diverged: (%v,%v) vs (%v,%v)", e1, s1, e2, s2)
	}
}

func TestVirtualStalledTaskReported(t *testing.T) {
	_, err := RunVirtual(Options{Seed: 6}, func(env Env) {
		env.Spawn("waiter", 0, func(e Env) {
			e.Recv(tagData) // never sent
		})
		env.Work(1e-3)
	})
	if err == nil {
		t.Fatal("stalled task not reported")
	}
}

func TestVirtualSizedPayloadSlower(t *testing.T) {
	big := sizedPayload(100000)
	small := sizedPayload(1)
	timeFor := func(p sizedPayload) float64 {
		var arrived float64
		_, err := RunVirtual(Options{Seed: 7}, func(env Env) {
			child := env.Spawn("c", 0, func(e Env) {
				e.Recv(tagData)
				arrived = e.Now()
			})
			env.Send(child, tagData, p)
		})
		if err != nil {
			t.Fatal(err)
		}
		return arrived
	}
	if !(timeFor(big) > timeFor(small)) {
		t.Fatal("bigger payload should arrive later")
	}
}

type sizedPayload int

func (s sizedPayload) PVMItems() int { return int(s) }

func TestVirtualCrossMachineSlowerThanLocal(t *testing.T) {
	c := cluster.Homogeneous(2, 1)
	arrival := func(machine int) float64 {
		var at float64
		_, err := RunVirtual(Options{Cluster: c, Seed: 8}, func(env Env) {
			child := env.Spawn("c", machine, func(e Env) {
				e.Recv(tagData)
				at = e.Now()
			})
			env.Send(child, tagData, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	if !(arrival(1) > arrival(0)) {
		t.Fatal("cross-machine message should be slower than same-machine")
	}
}

func TestRealPingPong(t *testing.T) {
	var rounds int32
	_, err := RunReal(Options{Seed: 1}, func(env Env) {
		child := env.Spawn("child", 0, func(c Env) {
			for {
				m := c.Recv(tagPing, tagStop)
				if m.Tag == tagStop {
					return
				}
				c.Send(m.From, tagPong, m.Data)
			}
		})
		for i := 0; i < 10; i++ {
			env.Send(child, tagPing, i)
			m := env.Recv(tagPong)
			if m.Data.(int) != i {
				t.Errorf("round %d: got %v", i, m.Data)
			}
			atomic.AddInt32(&rounds, 1)
		}
		env.Send(child, tagStop, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 10 {
		t.Fatalf("rounds = %d", rounds)
	}
}

func TestRealFanOutFanIn(t *testing.T) {
	const workers = 16
	var total int64
	_, err := RunReal(Options{Cluster: cluster.Homogeneous(4, 1), Seed: 2}, func(env Env) {
		for i := 0; i < workers; i++ {
			i := i
			env.Spawn("w", i, func(e Env) {
				e.Send(0, tagData, i)
			})
		}
		for i := 0; i < workers; i++ {
			m := env.Recv(tagData)
			atomic.AddInt64(&total, int64(m.Data.(int)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != workers*(workers-1)/2 {
		t.Fatalf("total = %d", total)
	}
}

func TestRandStreamsMatchAcrossRuntimes(t *testing.T) {
	grab := func(run func(Options, TaskFunc) (float64, error)) []uint64 {
		var vals []uint64
		if _, err := run(Options{Seed: 11}, func(env Env) {
			child := env.Spawn("w", 0, func(e Env) {
				var v []uint64
				for i := 0; i < 4; i++ {
					v = append(v, e.Rand().Uint64())
				}
				e.Send(0, tagData, v)
			})
			_ = child
			vals = env.Recv(tagData).Data.([]uint64)
		}); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	v := grab(RunVirtual)
	r := grab(RunReal)
	for i := range v {
		if v[i] != r[i] {
			t.Fatalf("random streams differ between runtimes at %d", i)
		}
	}
}

func TestInvalidClusterRejected(t *testing.T) {
	bad := Options{Cluster: cluster.Cluster{Machines: []cluster.Machine{{Speed: 0}}}}
	if _, err := RunVirtual(bad, func(Env) {}); err == nil {
		t.Error("virtual accepted invalid cluster")
	}
	if _, err := RunReal(bad, func(Env) {}); err == nil {
		t.Error("real accepted invalid cluster")
	}
}

func TestMachineIndexWraps(t *testing.T) {
	_, err := RunVirtual(Options{Cluster: cluster.Homogeneous(3, 1), Seed: 12}, func(env Env) {
		done := env.Spawn("w", 7, func(e Env) {
			if e.MachineIndex() != 1 { // 7 mod 3
				t.Errorf("MachineIndex = %d, want 1", e.MachineIndex())
			}
			e.Send(0, tagStop, nil)
		})
		_ = done
		env.Recv(tagStop)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVirtualMessageAllocFree: after warm-up, a virtual ping-pong with
// nil payloads allocates nothing per round trip. Deliveries come from
// the run's free list, and the tag sets are shared slices, as in the
// search's own loops.
func TestVirtualMessageAllocFree(t *testing.T) {
	pingTags, pongTags := []Tag{tagPing, tagStop}, []Tag{tagPong}
	var allocs float64
	_, err := RunVirtual(Options{Seed: 1}, func(env Env) {
		child := env.Spawn("child", 0, func(c Env) {
			for {
				m := c.Recv(pingTags...)
				if m.Tag == tagStop {
					return
				}
				c.Send(m.From, tagPong, nil)
			}
		})
		roundTrip := func() {
			env.Send(child, tagPing, nil)
			env.Recv(pongTags...)
		}
		for range 10 {
			roundTrip()
		}
		allocs = testing.AllocsPerRun(200, roundTrip)
		env.Send(child, tagStop, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a virtual round trip allocates %v times", allocs)
	}
}

func BenchmarkVirtualMessageRoundTrip(b *testing.B) {
	_, err := RunVirtual(Options{Seed: 1}, func(env Env) {
		child := env.Spawn("child", 0, func(c Env) {
			for {
				m := c.Recv(tagPing, tagStop)
				if m.Tag == tagStop {
					return
				}
				c.Send(m.From, tagPong, nil)
			}
		})
		for i := 0; i < b.N; i++ {
			env.Send(child, tagPing, nil)
			env.Recv(tagPong)
		}
		env.Send(child, tagStop, nil)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRealMessageRoundTrip times one ping-pong between two tasks
// of the in-process transport: on two threads, where each message wakes
// the other goroutine, and co-scheduled, where the child is a coroutine
// on the parent's thread and each message is a coroutine switch.
func BenchmarkRealMessageRoundTrip(b *testing.B) {
	for _, colocate := range []bool{false, true} {
		name := "threads"
		if colocate {
			name = "coscheduled"
		}
		b.Run(name, func(b *testing.B) {
			_, err := RunReal(Options{Seed: 1}, func(env Env) {
				child := env.SpawnSpec("child", 0, Spec{Colocate: colocate, Fn: func(c Env) {
					for {
						m := c.Recv(tagPing, tagStop)
						if m.Tag == tagStop {
							return
						}
						c.Send(m.From, tagPong, nil)
					}
				}})
				for i := 0; i < b.N; i++ {
					env.Send(child, tagPing, nil)
					env.Recv(tagPong)
				}
				env.Send(child, tagStop, nil)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
