// Package cluster models the heterogeneous network of workstations the
// paper ran on: machines with different raw speeds and time-varying
// external load, plus message latency.
//
// A machine's effective speed at time t is Speed / (1 + Load(t)); work is
// expressed in seconds-of-compute-on-a-speed-1.0-idle-machine, so the
// duration of a chunk of work is the integral of effective speed solved
// for the work amount. Load traces are piecewise constant and cyclic,
// which keeps the integration closed-form and deterministic.
//
// Testbed12 reproduces the paper's experimental platform: 12 machines —
// 7 high-speed, 3 medium-speed, 2 low-speed — sharing a LAN.
package cluster

import (
	"fmt"
	"math"

	"pts/internal/rng"
)

// LoadTrace is a cyclic piecewise-constant external load: during segment
// i (of Period seconds) the load is Levels[i mod len(Levels)]. A zero
// trace means an idle machine.
type LoadTrace struct {
	Period float64
	Levels []float64
}

// At returns the load at time t.
func (lt LoadTrace) At(t float64) float64 {
	if len(lt.Levels) == 0 || lt.Period <= 0 {
		return 0
	}
	seg := int(math.Floor(t/lt.Period)) % len(lt.Levels)
	if seg < 0 {
		seg += len(lt.Levels)
	}
	return lt.Levels[seg]
}

// Machine is one workstation.
type Machine struct {
	Name  string
	Speed float64 // relative raw speed; 1.0 = reference machine
	Load  LoadTrace
}

// WorkDuration returns how long the machine needs, starting at time
// start, to complete `work` seconds of reference compute. With no load
// trace this is work/Speed; with one it integrates the piecewise
// effective speed, fast-forwarding whole load cycles.
func (m *Machine) WorkDuration(start, work float64) float64 {
	if work <= 0 {
		return 0
	}
	if m.Speed <= 0 {
		return math.Inf(1)
	}
	lt := m.Load
	if len(lt.Levels) == 0 || lt.Period <= 0 {
		return work / m.Speed
	}
	nLevels := int64(len(lt.Levels))
	level := func(seg int64) float64 {
		i := seg % nLevels
		if i < 0 {
			i += nLevels
		}
		return lt.Levels[i]
	}
	// Work in (segment index, offset) space: the segment counter stays
	// integral so repeated float floors cannot misclassify boundaries.
	seg := int64(math.Floor(start / lt.Period))
	off := start - float64(seg)*lt.Period
	if off < 0 {
		off += lt.Period
		seg--
	}
	remaining := work
	dur := 0.0
	// Partial first segment.
	eff := m.Speed / (1 + level(seg))
	if c := eff * (lt.Period - off); c >= remaining {
		return dur + remaining/eff
	} else {
		remaining -= c
		dur += lt.Period - off
		seg++
	}
	// Fast-forward whole load cycles.
	perCycle := 0.0
	for _, l := range lt.Levels {
		perCycle += (m.Speed / (1 + l)) * lt.Period
	}
	if n := math.Floor(remaining / perCycle); n > 0 {
		remaining -= n * perCycle
		dur += n * lt.Period * float64(nLevels)
	}
	// Walk the remaining (< one cycle of) segments; +2 covers float
	// round-off at the cycle edge.
	for i := int64(0); i < nLevels+2; i++ {
		eff = m.Speed / (1 + level(seg))
		if c := eff * lt.Period; c >= remaining {
			return dur + remaining/eff
		} else {
			remaining -= c
			dur += lt.Period
			seg++
		}
	}
	// Unreachable with positive speeds; safe overestimate.
	return dur + remaining/m.Speed
}

// Cluster is a set of machines plus the LAN's message cost model: a
// message of n payload items costs SendLatency + PerItem*n seconds
// end-to-end.
type Cluster struct {
	Machines    []Machine
	SendLatency float64
	PerItem     float64
}

// Validate reports configuration problems.
func (c Cluster) Validate() error {
	if len(c.Machines) == 0 {
		return fmt.Errorf("cluster: no machines")
	}
	for i, m := range c.Machines {
		if m.Speed <= 0 {
			return fmt.Errorf("cluster: machine %d (%s) has nonpositive speed", i, m.Name)
		}
	}
	if c.SendLatency < 0 || c.PerItem < 0 {
		return fmt.Errorf("cluster: negative latency")
	}
	return nil
}

// Machine returns machine i with round-robin wrapping, the assignment
// policy for spawning more tasks than machines.
func (c Cluster) Machine(i int) Machine {
	n := len(c.Machines)
	if i %= n; i < 0 {
		i += n
	}
	return c.Machines[i]
}

// MsgDelay returns the modeled end-to-end latency of a message with n
// payload items.
func (c Cluster) MsgDelay(n int) float64 {
	if n < 0 {
		n = 0
	}
	return c.SendLatency + c.PerItem*float64(n)
}

// defaultLAN is the message cost model used by the presets: ~0.25 ms
// base latency (2003-era 100 Mbit LAN + PVM overhead) plus 40 ns per
// 4-byte payload item.
const (
	defaultSendLatency = 250e-6
	defaultPerItem     = 40e-9
)

// Homogeneous builds n identical idle machines of the given speed.
func Homogeneous(n int, speed float64) Cluster {
	ms := make([]Machine, n)
	for i := range ms {
		ms[i] = Machine{Name: fmt.Sprintf("node%02d", i), Speed: speed}
	}
	return Cluster{Machines: ms, SendLatency: defaultSendLatency, PerItem: defaultPerItem}
}

// Testbed12 builds the paper's 12-machine platform: 7 high-speed
// (speed 1.0), 3 medium-speed (0.55), 2 low-speed (0.3) workstations.
// Each machine carries a light random background load trace (it is a
// shared departmental LAN), deterministic in seed; seed 0 yields idle
// machines so speed differences alone can be studied.
func Testbed12(seed uint64) Cluster {
	type class struct {
		n       int
		speed   float64
		prefix  string
		maxLoad float64
	}
	classes := []class{
		{7, 1.0, "fast", 0.35},
		{3, 0.55, "med", 0.5},
		{2, 0.3, "slow", 0.6},
	}
	var ms []Machine
	r := rng.New(rng.Derive(seed, "cluster.testbed12"))
	for _, cl := range classes {
		for i := 0; i < cl.n; i++ {
			m := Machine{Name: fmt.Sprintf("%s%02d", cl.prefix, i), Speed: cl.speed}
			if seed != 0 {
				levels := make([]float64, 4+r.Intn(4))
				for j := range levels {
					levels[j] = r.Float64() * cl.maxLoad
				}
				m.Load = LoadTrace{Period: 0.25 + r.Float64()*1.75, Levels: levels}
			}
			ms = append(ms, m)
		}
	}
	return Cluster{Machines: ms, SendLatency: defaultSendLatency, PerItem: defaultPerItem}
}
