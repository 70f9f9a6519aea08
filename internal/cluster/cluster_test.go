package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLoadTraceAt(t *testing.T) {
	lt := LoadTrace{Period: 2, Levels: []float64{0.5, 1.0, 0.0}}
	cases := []struct{ t, want float64 }{
		{0, 0.5}, {1.9, 0.5}, {2, 1.0}, {4, 0.0}, {6, 0.5}, {7.5, 0.5}, {8, 1.0},
	}
	for _, c := range cases {
		if got := lt.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if (LoadTrace{}).At(5) != 0 {
		t.Error("zero trace should be idle")
	}
}

func TestWorkDurationIdle(t *testing.T) {
	m := Machine{Speed: 0.5}
	if got := m.WorkDuration(10, 3); got != 6 {
		t.Errorf("WorkDuration = %v, want 6", got)
	}
	if m.WorkDuration(0, 0) != 0 {
		t.Error("zero work should take zero time")
	}
	if m.WorkDuration(0, -1) != 0 {
		t.Error("negative work should take zero time")
	}
}

func TestWorkDurationPiecewiseByHand(t *testing.T) {
	// Speed 1, period 1: load alternates 0 and 1 -> effective speeds 1
	// then 0.5. Work of 1.5 starting at t=0: segment 1 does 1.0, leaving
	// 0.5 at speed 0.5 -> 1.0 more seconds. Total 2.0.
	m := Machine{Speed: 1, Load: LoadTrace{Period: 1, Levels: []float64{0, 1}}}
	if got := m.WorkDuration(0, 1.5); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("WorkDuration = %v, want 2.0", got)
	}
	// Starting mid-segment: at t=0.5 segment 0 has 0.5s at speed 1.
	// Work 1.0: 0.5 done by t=1, remaining 0.5 at speed 0.5 -> +1s. 1.5 total.
	if got := m.WorkDuration(0.5, 1.0); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("WorkDuration(0.5, 1.0) = %v, want 1.5", got)
	}
}

func TestWorkDurationFastForwardCycles(t *testing.T) {
	m := Machine{Speed: 1, Load: LoadTrace{Period: 0.5, Levels: []float64{0, 1}}}
	// One cycle (1s) does 0.5 + 0.25 = 0.75 work. 75 work = 100 cycles.
	got := m.WorkDuration(0, 75)
	if math.Abs(got-100) > 1e-6 {
		t.Errorf("WorkDuration = %v, want 100", got)
	}
}

// Property: duration is positive, monotone in work, and never better
// than the idle bound work/Speed.
func TestQuickWorkDurationBounds(t *testing.T) {
	f := func(speedRaw, w1Raw, w2Raw uint16, startRaw uint16) bool {
		speed := 0.1 + float64(speedRaw%40)/10
		m := Machine{
			Speed: speed,
			Load:  LoadTrace{Period: 0.3, Levels: []float64{0, 0.5, 1.2, 0.1}},
		}
		w1 := float64(w1Raw) / 100
		w2 := w1 + float64(w2Raw)/100
		start := float64(startRaw) / 7
		d1 := m.WorkDuration(start, w1)
		d2 := m.WorkDuration(start, w2)
		if d2 < d1-1e-9 {
			return false
		}
		return d1 >= w1/speed-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a WorkDuration result is self-consistent — doing the work in
// two chunks takes as long as doing it at once.
func TestQuickWorkDurationAdditive(t *testing.T) {
	m := Machine{Speed: 0.8, Load: LoadTrace{Period: 0.7, Levels: []float64{0.2, 0.9, 0}}}
	f := func(aRaw, bRaw, startRaw uint16) bool {
		a := float64(aRaw) / 50
		b := float64(bRaw) / 50
		start := float64(startRaw) / 13
		whole := m.WorkDuration(start, a+b)
		first := m.WorkDuration(start, a)
		second := m.WorkDuration(start+first, b)
		return math.Abs(whole-(first+second)) < 1e-9*(1+whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterValidate(t *testing.T) {
	if err := (Cluster{}).Validate(); err == nil {
		t.Error("empty cluster accepted")
	}
	if err := (Cluster{Machines: []Machine{{Speed: 0}}}).Validate(); err == nil {
		t.Error("zero-speed machine accepted")
	}
	if err := (Cluster{Machines: []Machine{{Speed: 1}}, SendLatency: -1}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	if err := Homogeneous(3, 1).Validate(); err != nil {
		t.Errorf("homogeneous cluster rejected: %v", err)
	}
}

func TestClusterMachineWraps(t *testing.T) {
	c := Homogeneous(3, 1)
	if c.Machine(5).Name != c.Machine(2).Name {
		t.Error("machine index should wrap")
	}
	if c.Machine(-1).Name == "" {
		t.Error("negative index should wrap, not panic")
	}
	for i := -7; i <= 7; i++ {
		if got, want := c.Machine(i).Name, c.Machines[((i%3)+3)%3].Name; got != want {
			t.Errorf("Machine(%d) = %s, want %s", i, got, want)
		}
	}
}

func TestMsgDelay(t *testing.T) {
	c := Cluster{Machines: []Machine{{Speed: 1}}, SendLatency: 1e-3, PerItem: 1e-6}
	if got := c.MsgDelay(1000); math.Abs(got-2e-3) > 1e-12 {
		t.Errorf("MsgDelay = %v, want 2e-3", got)
	}
	if c.MsgDelay(-5) != 1e-3 {
		t.Error("negative size should clamp")
	}
}

func TestTestbed12Composition(t *testing.T) {
	c := Testbed12(1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Machines) != 12 {
		t.Fatalf("%d machines, want 12", len(c.Machines))
	}
	counts := map[float64]int{}
	for _, m := range c.Machines {
		counts[m.Speed]++
	}
	if counts[1.0] != 7 || counts[0.55] != 3 || counts[0.3] != 2 {
		t.Fatalf("speed classes wrong: %v", counts)
	}
	// Loaded testbed must actually carry load.
	loaded := false
	for _, m := range c.Machines {
		if len(m.Load.Levels) > 0 {
			loaded = true
		}
	}
	if !loaded {
		t.Error("seeded testbed carries no load traces")
	}
	// Seed 0 must be idle.
	for _, m := range Testbed12(0).Machines {
		if len(m.Load.Levels) != 0 {
			t.Fatal("seed-0 testbed should be idle")
		}
	}
}

func TestTestbed12Deterministic(t *testing.T) {
	a, b := Testbed12(7), Testbed12(7)
	for i := range a.Machines {
		am, bm := a.Machines[i], b.Machines[i]
		if am.Speed != bm.Speed || am.Load.Period != bm.Load.Period ||
			len(am.Load.Levels) != len(bm.Load.Levels) {
			t.Fatal("testbed not deterministic")
		}
	}
}
