package pts

import (
	"io"
	"os"
	"path/filepath"
	"strings"

	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/timing"
	"pts/internal/viz"
)

// PlacementProblem is the paper's workload: VLSI standard-cell
// placement under the fuzzy multi-objective cost (wirelength, timing,
// area). It implements Problem — states are incremental evaluators over
// a shared slot grid — and Detailer, so Result.Details carries a
// PlacementDetails with the exact objectives of the best layout.
//
// A PlacementProblem value supports one run at a time: the fuzzy goals
// every state scores against are rebased on each run's initial
// solution.
type PlacementProblem struct {
	nl *netlist.Netlist
	pp *cost.PlacementProblem
}

// newPlacement wraps a loaded circuit.
func newPlacement(nl *netlist.Netlist) *PlacementProblem {
	return &PlacementProblem{nl: nl, pp: cost.NewPlacementProblem(nl)}
}

// PlacementBenchmark returns the placement problem over one of the
// repository's named benchmark circuits (highway, c532, c1355, c3540 —
// synthetic stand-ins matched to the paper's circuits).
func PlacementBenchmark(name string) (*PlacementProblem, error) {
	nl, err := netlist.Benchmark(name)
	if err != nil {
		return nil, err
	}
	return newPlacement(nl), nil
}

// PlacementFromFile loads a circuit from disk and returns its placement
// problem. Files ending in ".bench" are parsed as ISCAS-89 benchmark
// netlists; anything else as this repository's text netlist format.
func PlacementFromFile(path string) (*PlacementProblem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var nl *netlist.Netlist
	if strings.HasSuffix(path, ".bench") {
		base := strings.TrimSuffix(filepath.Base(path), ".bench")
		nl, err = netlist.ReadBench(f, base, 1)
	} else {
		nl, err = netlist.Read(f)
	}
	if err != nil {
		return nil, err
	}
	return newPlacement(nl), nil
}

// GeneratePlacement synthesizes a random circuit with the given name
// and cell count, deterministic in seed, and returns its placement
// problem.
func GeneratePlacement(name string, cells int, seed uint64) (*PlacementProblem, error) {
	nl, err := netlist.Generate(netlist.GenConfig{Name: name, Cells: cells, Seed: seed})
	if err != nil {
		return nil, err
	}
	return newPlacement(nl), nil
}

// Name returns the circuit name.
func (p *PlacementProblem) Name() string { return p.pp.Name() }

// Size returns the number of cells.
func (p *PlacementProblem) Size() int32 { return p.pp.Size() }

// Initial derives the run's shared initial placement from seed and
// rebases the fuzzy goals on it.
func (p *PlacementProblem) Initial(seed uint64) (State, error) { return p.pp.Initial(seed) }

// NewState builds an independent evaluator positioned at snap.
func (p *PlacementProblem) NewState(snap []int32) (State, error) { return p.pp.NewState(snap) }

// Details rescores a solution exactly (fresh full timing analysis) and
// returns a PlacementDetails.
func (p *PlacementProblem) Details(best []int32) (any, error) {
	obj, cpd, err := p.pp.Score(best)
	if err != nil {
		return nil, err
	}
	return PlacementDetails{
		Wirelength:   obj.Wirelength,
		Delay:        obj.Delay,
		Area:         obj.Area,
		CriticalPath: cpd,
	}, nil
}

// Describe returns a one-line circuit summary (cells, nets, pin
// statistics).
func (p *PlacementProblem) Describe() string { return p.nl.ComputeStats().String() }

// Cells returns the circuit's cell count.
func (p *PlacementProblem) Cells() int { return p.nl.NumCells() }

// Nets returns the circuit's net count.
func (p *PlacementProblem) Nets() int { return p.nl.NumNets() }

// WriteSVG renders the layout a solution permutation denotes as a
// congestion heat map.
func (p *PlacementProblem) WriteSVG(w io.Writer, perm []int32) error {
	pl, err := p.pp.Placed(perm)
	if err != nil {
		return err
	}
	return viz.WritePlacementSVG(w, pl)
}

// CriticalPathText formats the critical path of a solution permutation
// hop by hop.
func (p *PlacementProblem) CriticalPathText(perm []int32) (string, error) {
	pl, err := p.pp.Placed(perm)
	if err != nil {
		return "", err
	}
	an := timing.New(p.nl, timing.DefaultConfig())
	an.Analyze(pl)
	return timing.FormatPath(p.nl, an.CriticalPathCells(pl)), nil
}

// PlacementDetails is the exact scoring of a placement solution.
type PlacementDetails struct {
	// Wirelength is the total half-perimeter wirelength in slot units.
	Wirelength float64
	// Delay is the criticality-weighted interconnect delay surrogate.
	Delay float64
	// Area is the width of the widest row in slot units.
	Area float64
	// CriticalPath is the exact critical path delay in nanoseconds.
	CriticalPath float64
}
