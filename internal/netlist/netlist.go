// Package netlist models the combinational circuits that the placement
// substrate and the tabu search optimize.
//
// A Netlist is a set of cells (standard cells plus primary input/output
// pads) connected by multi-terminal nets. Each net has exactly one driver
// cell and one or more sink cells, so the netlist induces a directed
// graph; the synthetic benchmark generator always produces acyclic
// circuits, which the static timing analyzer requires.
//
// The real evaluation circuits of the paper are ISCAS-89 derivatives that
// are not redistributable; Generate builds synthetic instances with the
// same cell counts and realistic connectivity statistics (see the
// Workloads section of the README).
package netlist

import (
	"fmt"
)

// CellID identifies a cell by index into Netlist.Cells.
type CellID int32

// NetID identifies a net by index into Netlist.Nets.
type NetID int32

// None marks the absence of a cell (e.g. an empty layout slot).
const None CellID = -1

// CellKind distinguishes core cells from I/O pads.
type CellKind uint8

const (
	// Gate is a placeable standard cell.
	Gate CellKind = iota
	// Input is a primary-input pad.
	Input
	// Output is a primary-output pad.
	Output
)

// String returns the kind's mnemonic.
func (k CellKind) String() string {
	switch k {
	case Gate:
		return "gate"
	case Input:
		return "input"
	case Output:
		return "output"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Cell is one placeable element of the circuit.
type Cell struct {
	Name  string
	Width int     // layout width in abstract units (>= 1)
	Delay float64 // intrinsic switching delay in ns
	Kind  CellKind
}

// Net is a multi-terminal connection with one driver and >= 1 sinks.
type Net struct {
	Name   string
	Driver CellID
	Sinks  []CellID
}

// Degree returns the number of terminals on the net (driver + sinks).
func (n *Net) Degree() int { return 1 + len(n.Sinks) }

// Netlist is an immutable circuit description plus derived indexes.
// Build the indexes with Finish before using the accessor methods.
//
// The adjacency indexes are stored in CSR (compressed sparse row) form:
// one contiguous flat array per relation plus an offsets array, so that
// the placement evaluator's per-trial walks over a cell's nets and a
// net's pins touch consecutive memory instead of chasing per-cell slice
// headers. Accessors return subslices of the flat arrays.
type Netlist struct {
	Name  string
	Cells []Cell
	Nets  []Net

	// Derived CSR indexes (built by Finish). For each relation, off has
	// len+1 entries and row i is flat[off[i]:off[i+1]].
	cellNetsFlat []NetID // all nets touching a cell (as driver or sink)
	cellNetsOff  []int32
	drivesFlat   []NetID // nets driven by a cell
	drivesOff    []int32
	sinksOfFlat  []NetID // nets for which the cell is a sink
	sinksOfOff   []int32
	pinsFlat     []CellID // per net: driver first, then sinks
	pinsOff      []int32

	order    []CellID // topological order, inputs first
	level    []int32  // topological level per cell
	maxLevel int32
}

// NumCells returns the number of cells.
func (nl *Netlist) NumCells() int { return len(nl.Cells) }

// NumNets returns the number of nets.
func (nl *Netlist) NumNets() int { return len(nl.Nets) }

// CellNets returns the IDs of all nets touching cell c, sorted by
// ascending net id — the placement engine's swap evaluator relies on
// the ordering to merge-detect nets shared by two cells. The returned
// slice is a view into the shared CSR index; callers must not modify it.
func (nl *Netlist) CellNets(c CellID) []NetID {
	return nl.cellNetsFlat[nl.cellNetsOff[c]:nl.cellNetsOff[c+1]]
}

// CellNetsCSR exposes the raw cell→nets CSR index — cell c's nets are
// flat[off[c]:off[c+1]], ascending — for kernel-style consumers that
// walk many cells' net lists in one pass (the placement batch
// evaluator) without re-deriving a subslice header per cell. Both
// slices are the shared index; callers must not modify them.
func (nl *Netlist) CellNetsCSR() (off []int32, flat []NetID) {
	return nl.cellNetsOff, nl.cellNetsFlat
}

// Drives returns the nets driven by cell c.
func (nl *Netlist) Drives(c CellID) []NetID {
	return nl.drivesFlat[nl.drivesOff[c]:nl.drivesOff[c+1]]
}

// SinkNets returns the nets that feed cell c (c is a sink).
func (nl *Netlist) SinkNets(c CellID) []NetID {
	return nl.sinksOfFlat[nl.sinksOfOff[c]:nl.sinksOfOff[c+1]]
}

// Pins returns every terminal of net n — the driver first, then the
// sinks — as a view into the shared CSR index; callers must not modify
// it. The placement engine's box rescans iterate this instead of the
// Driver field plus the Sinks slice so one net is one contiguous read.
func (nl *Netlist) Pins(n NetID) []CellID {
	return nl.pinsFlat[nl.pinsOff[n]:nl.pinsOff[n+1]]
}

// TopoOrder returns the cells in topological order (primary inputs
// first). Valid only if the netlist is acyclic.
func (nl *Netlist) TopoOrder() []CellID { return nl.order }

// Level returns the topological level of cell c (0 for primary inputs).
func (nl *Netlist) Level(c CellID) int32 { return nl.level[c] }

// TotalWidth returns the sum of all cell widths.
func (nl *Netlist) TotalWidth() int {
	w := 0
	for i := range nl.Cells {
		w += nl.Cells[i].Width
	}
	return w
}

// Finish validates the netlist and builds the derived indexes. It must be
// called after constructing or mutating Cells/Nets and before using the
// accessors. It reports the first structural problem found.
func (nl *Netlist) Finish() error {
	n := len(nl.Cells)
	if n == 0 {
		return fmt.Errorf("netlist %q: no cells", nl.Name)
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Width <= 0 {
			return fmt.Errorf("netlist %q: cell %d (%s) has nonpositive width %d", nl.Name, i, c.Name, c.Width)
		}
		if c.Delay < 0 {
			return fmt.Errorf("netlist %q: cell %d (%s) has negative delay", nl.Name, i, c.Name)
		}
	}
	// Validation pass, counting each relation's row sizes.
	totalPins := 0
	cellNetsCnt := make([]int32, n)
	drivesCnt := make([]int32, n)
	sinksOfCnt := make([]int32, n)
	for i := range nl.Nets {
		net := &nl.Nets[i]
		if net.Driver < 0 || int(net.Driver) >= n {
			return fmt.Errorf("netlist %q: net %d (%s) has invalid driver %d", nl.Name, i, net.Name, net.Driver)
		}
		if len(net.Sinks) == 0 {
			return fmt.Errorf("netlist %q: net %d (%s) has no sinks", nl.Name, i, net.Name)
		}
		drivesCnt[net.Driver]++
		cellNetsCnt[net.Driver]++
		seen := map[CellID]bool{net.Driver: true}
		for _, s := range net.Sinks {
			if s < 0 || int(s) >= n {
				return fmt.Errorf("netlist %q: net %d (%s) has invalid sink %d", nl.Name, i, net.Name, s)
			}
			if seen[s] {
				return fmt.Errorf("netlist %q: net %d (%s) lists cell %d twice", nl.Name, i, net.Name, s)
			}
			seen[s] = true
			sinksOfCnt[s]++
			cellNetsCnt[s]++
		}
		totalPins += net.Degree()
	}

	// CSR offsets from the counts, then the fill pass. Row order matches
	// the historical per-cell append order (nets in ascending id).
	offsets := func(cnt []int32) []int32 {
		off := make([]int32, len(cnt)+1)
		for i, c := range cnt {
			off[i+1] = off[i] + c
		}
		return off
	}
	nl.cellNetsOff = offsets(cellNetsCnt)
	nl.drivesOff = offsets(drivesCnt)
	nl.sinksOfOff = offsets(sinksOfCnt)
	nl.cellNetsFlat = make([]NetID, nl.cellNetsOff[n])
	nl.drivesFlat = make([]NetID, nl.drivesOff[n])
	nl.sinksOfFlat = make([]NetID, nl.sinksOfOff[n])
	nl.pinsOff = make([]int32, len(nl.Nets)+1)
	nl.pinsFlat = make([]CellID, 0, totalPins)
	cellNetsCur := append([]int32(nil), nl.cellNetsOff[:n]...)
	drivesCur := append([]int32(nil), nl.drivesOff[:n]...)
	sinksOfCur := append([]int32(nil), nl.sinksOfOff[:n]...)
	for i := range nl.Nets {
		net := &nl.Nets[i]
		id := NetID(i)
		nl.drivesFlat[drivesCur[net.Driver]] = id
		drivesCur[net.Driver]++
		nl.cellNetsFlat[cellNetsCur[net.Driver]] = id
		cellNetsCur[net.Driver]++
		nl.pinsFlat = append(nl.pinsFlat, net.Driver)
		for _, s := range net.Sinks {
			nl.sinksOfFlat[sinksOfCur[s]] = id
			sinksOfCur[s]++
			nl.cellNetsFlat[cellNetsCur[s]] = id
			cellNetsCur[s]++
			nl.pinsFlat = append(nl.pinsFlat, s)
		}
		nl.pinsOff[i+1] = int32(len(nl.pinsFlat))
	}
	return nl.levelize()
}

// levelize computes a topological order and per-cell levels with Kahn's
// algorithm; an error means the netlist has a combinational cycle.
func (nl *Netlist) levelize() error {
	n := len(nl.Cells)
	indeg := make([]int32, n)
	for c := 0; c < n; c++ {
		indeg[c] = int32(len(nl.SinkNets(CellID(c))))
	}
	nl.order = make([]CellID, 0, n)
	nl.level = make([]int32, n)
	queue := make([]CellID, 0, n)
	for c := 0; c < n; c++ {
		if indeg[c] == 0 {
			queue = append(queue, CellID(c))
		}
	}
	nl.maxLevel = 0
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		nl.order = append(nl.order, c)
		for _, netID := range nl.Drives(c) {
			net := &nl.Nets[netID]
			for _, s := range net.Sinks {
				if lv := nl.level[c] + 1; lv > nl.level[s] {
					nl.level[s] = lv
					if lv > nl.maxLevel {
						nl.maxLevel = lv
					}
				}
				indeg[s]--
				if indeg[s] == 0 {
					queue = append(queue, s)
				}
			}
		}
	}
	if len(nl.order) != n {
		return fmt.Errorf("netlist %q: combinational cycle detected (%d of %d cells ordered)",
			nl.Name, len(nl.order), n)
	}
	return nil
}

// Stats summarizes a netlist's size and connectivity.
type Stats struct {
	Cells, Nets     int
	Inputs, Outputs int
	Pins            int // total terminals over all nets
	AvgNetDegree    float64
	MaxNetDegree    int
	AvgFanin        float64 // average over gate/output cells
	MaxFanin        int
	LogicDepth      int // max topological level
	TotalWidth      int
}

// ComputeStats derives Stats for the netlist. Finish must have been
// called.
func (nl *Netlist) ComputeStats() Stats {
	var s Stats
	s.Cells = len(nl.Cells)
	s.Nets = len(nl.Nets)
	s.LogicDepth = int(nl.maxLevel)
	s.TotalWidth = nl.TotalWidth()
	for i := range nl.Cells {
		switch nl.Cells[i].Kind {
		case Input:
			s.Inputs++
		case Output:
			s.Outputs++
		}
	}
	for i := range nl.Nets {
		d := nl.Nets[i].Degree()
		s.Pins += d
		if d > s.MaxNetDegree {
			s.MaxNetDegree = d
		}
	}
	if s.Nets > 0 {
		s.AvgNetDegree = float64(s.Pins) / float64(s.Nets)
	}
	gateCells, faninSum := 0, 0
	for c := 0; c < len(nl.Cells); c++ {
		if nl.Cells[c].Kind == Input {
			continue
		}
		gateCells++
		fi := len(nl.SinkNets(CellID(c)))
		faninSum += fi
		if fi > s.MaxFanin {
			s.MaxFanin = fi
		}
	}
	if gateCells > 0 {
		s.AvgFanin = float64(faninSum) / float64(gateCells)
	}
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("cells=%d nets=%d pins=%d in=%d out=%d avgDeg=%.2f maxDeg=%d avgFanin=%.2f depth=%d width=%d",
		s.Cells, s.Nets, s.Pins, s.Inputs, s.Outputs, s.AvgNetDegree, s.MaxNetDegree, s.AvgFanin, s.LogicDepth, s.TotalWidth)
}
