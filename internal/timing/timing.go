// Package timing implements the static timing analysis the placement
// cost's delay objective needs.
//
// The model is the lumped linear model of the paper's era: a cell's
// switching delay is its intrinsic delay plus a load term proportional to
// its fanout, and a net's interconnect delay is proportional to its
// half-perimeter wirelength in the current placement. A forward pass over
// the levelized netlist yields arrival times and the critical path delay;
// a backward pass yields required times, per-net slacks, and net
// criticalities in [0,1].
//
// Because a full analysis is O(cells+pins), the search evaluates trial
// moves against the cheaper surrogate WeightedWireDelay — the sum of
// criticality-weighted net delays — and refreshes criticalities with a
// full Analyze periodically (the classic net-weighting scheme of
// timing-driven placement).
//
// Gate delays do not depend on the placement, so New computes each
// cell's once; Analyze computes each net's wire delay once per pass and
// reads both arrays in the forward pass, the backward pass and the
// criticality pass, with the float operations of the per-pin
// formulation in the same order.
package timing

import (
	"math"
	"slices"

	"pts/internal/netlist"
	"pts/internal/placement"
)

// Config holds the delay model parameters.
type Config struct {
	// LoadFactor is the extra switching delay per driven sink, in ns.
	LoadFactor float64
	// WireDelayPerUnit is the interconnect delay per slot unit of net
	// half-perimeter, in ns.
	WireDelayPerUnit float64
}

// DefaultConfig returns parameters that make interconnect delay
// comparable to gate delay on the synthetic benchmarks, as in row-based
// technologies of the paper's era.
func DefaultConfig() Config {
	return Config{LoadFactor: 0.04, WireDelayPerUnit: 0.03}
}

// Analyzer performs static timing analysis over one netlist. It is
// reusable across placements of the same netlist and keeps the last
// analysis' arrival/required times and criticalities. Not safe for
// concurrent use; parallel workers each build or clone their own.
type Analyzer struct {
	nl  *netlist.Netlist
	cfg Config

	gate     []float64 // per cell: switching delay incl. fanout load
	wire     []float64 // per net: interconnect delay of the last Analyze
	arrival  []float64 // per cell: departure time at the cell output
	required []float64 // per cell: latest allowed departure
	crit     []float64 // per net: criticality in [0,1]
	cpd      float64
}

// New creates an analyzer for nl. Criticalities start at 1 (all nets
// timing-relevant) until the first Analyze.
func New(nl *netlist.Netlist, cfg Config) *Analyzer {
	a := &Analyzer{
		nl:       nl,
		cfg:      cfg,
		gate:     make([]float64, nl.NumCells()),
		wire:     make([]float64, nl.NumNets()),
		arrival:  make([]float64, nl.NumCells()),
		required: make([]float64, nl.NumCells()),
		crit:     make([]float64, nl.NumNets()),
	}
	for c := range a.gate {
		a.gate[c] = a.cellDelay(netlist.CellID(c))
	}
	for i := range a.crit {
		a.crit[i] = 1
	}
	return a
}

// Config returns the analyzer's delay model parameters.
func (a *Analyzer) Config() Config { return a.cfg }

// cellDelay returns the switching delay of c including fanout load; New
// tabulates it per cell.
func (a *Analyzer) cellDelay(c netlist.CellID) float64 {
	d := a.nl.Cells[c].Delay
	for _, n := range a.nl.Drives(c) {
		d += a.cfg.LoadFactor * float64(len(a.nl.Nets[n].Sinks))
	}
	return d
}

// netDelay returns the interconnect delay of net n in placement p.
func (a *Analyzer) netDelay(p *placement.Placement, n netlist.NetID) float64 {
	return a.cfg.WireDelayPerUnit * p.NetHPWL(n)
}

// Analyze runs a full forward/backward pass against placement p and
// returns the critical path delay. It refreshes arrival and required
// times and all net criticalities.
func (a *Analyzer) Analyze(p *placement.Placement) float64 {
	nl := a.nl
	order := nl.TopoOrder()
	gate, wire := a.gate, a.wire
	for n := range wire {
		wire[n] = a.netDelay(p, netlist.NetID(n))
	}

	// Forward: departure time per cell.
	for _, c := range order {
		in := 0.0
		for _, n := range nl.SinkNets(c) {
			t := a.arrival[nl.Nets[n].Driver] + wire[n]
			if t > in {
				in = t
			}
		}
		a.arrival[c] = in + gate[c]
	}
	cpd := 0.0
	for c := range a.arrival {
		if a.arrival[c] > cpd {
			cpd = a.arrival[c]
		}
	}
	a.cpd = cpd

	// Backward: required departure per cell.
	for c := range a.required {
		a.required[c] = cpd
	}
	for i := len(order) - 1; i >= 0; i-- {
		c := order[i]
		req := cpd
		for _, n := range nl.Drives(c) {
			nd := wire[n]
			for _, s := range nl.Nets[n].Sinks {
				// Latest departure of c so that sink s still meets its
				// own required departure.
				t := a.required[s] - gate[s] - nd
				if t < req {
					req = t
				}
			}
		}
		a.required[c] = req
	}

	// Net criticalities from slack.
	for n := range a.crit {
		a.crit[n] = a.netCriticality(netlist.NetID(n))
	}
	return cpd
}

// Clone returns an independent analyzer holding a's last analysis: its
// wire delays, arrival and required times, criticalities and critical
// path delay. The gate-delay table depends only on the netlist and the
// delay model, so the clone shares it instead of rebuilding it.
func (a *Analyzer) Clone() *Analyzer {
	return &Analyzer{
		nl:       a.nl,
		cfg:      a.cfg,
		gate:     a.gate,
		wire:     slices.Clone(a.wire),
		arrival:  slices.Clone(a.arrival),
		required: slices.Clone(a.required),
		crit:     slices.Clone(a.crit),
		cpd:      a.cpd,
	}
}

// CopyFrom overwrites a's last analysis with src's, reusing a's
// storage. Both analyzers must time the same netlist under the same
// delay model.
func (a *Analyzer) CopyFrom(src *Analyzer) {
	if a.nl != src.nl || a.cfg != src.cfg {
		panic("timing: CopyFrom between analyzers of different circuits or delay models")
	}
	copy(a.wire, src.wire)
	copy(a.arrival, src.arrival)
	copy(a.required, src.required)
	copy(a.crit, src.crit)
	a.cpd = src.cpd
}

// netCriticality derives the criticality of net n from the current
// arrival/required times and wire delays: 1 on the critical path,
// falling linearly to 0 at slack == cpd.
func (a *Analyzer) netCriticality(n netlist.NetID) float64 {
	if a.cpd <= 0 {
		return 1
	}
	net := &a.nl.Nets[n]
	nd := a.wire[n]
	slack := math.Inf(1)
	for _, s := range net.Sinks {
		sl := (a.required[s] - a.gate[s]) - (a.arrival[net.Driver] + nd)
		if sl < slack {
			slack = sl
		}
	}
	c := 1 - slack/a.cpd
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// CriticalPath returns the critical path delay from the last Analyze.
func (a *Analyzer) CriticalPath() float64 { return a.cpd }

// Criticality returns the last computed criticality of net n.
func (a *Analyzer) Criticality(n netlist.NetID) float64 { return a.crit[n] }

// Criticalities returns the per-net criticality slice from the last
// Analyze (1 for every net before the first). The slice is shared;
// callers must not modify it.
func (a *Analyzer) Criticalities() []float64 { return a.crit }

// Slack returns the departure slack of cell c from the last Analyze.
func (a *Analyzer) Slack(c netlist.CellID) float64 { return a.required[c] - a.arrival[c] }

// WeightedWireDelay computes the timing surrogate the search optimizes:
// the criticality-weighted sum of net interconnect delays under placement
// p, using the criticalities of the last Analyze.
func (a *Analyzer) WeightedWireDelay(p *placement.Placement) float64 {
	total := 0.0
	for n := 0; n < a.nl.NumNets(); n++ {
		total += a.crit[n] * a.netDelay(p, netlist.NetID(n))
	}
	return total
}

// WeightedDeltaSwap returns the change of WeightedWireDelay if cells x
// and y exchanged positions, without modifying anything. One
// allocation-free pass over the affected nets via
// placement.SwapDeltaWeighted.
func (a *Analyzer) WeightedDeltaSwap(p *placement.Placement, x, y netlist.CellID) float64 {
	_, dCrit := p.SwapDeltaWeighted(x, y, a.crit)
	return a.cfg.WireDelayPerUnit * dCrit
}
