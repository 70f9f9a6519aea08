package netlist

import (
	"fmt"
	"math/rand"
	"sort"
)

// The paper evaluates four ISCAS-89-derived standard-cell circuits:
//
//	highway —   56 cells
//	c532    —  395 cells
//	c1355   — 1451 cells
//	c3540   — 2243 cells
//
// The original converted netlists were never published, so the named
// instances below are synthetic circuits with identical cell counts and
// realistic connectivity (see the Workloads section of the README).
// Seeds are fixed: the instances are stable across runs and machines.

// benchSpecs maps benchmark names to their generator configurations.
var benchSpecs = map[string]GenConfig{
	"highway": {Name: "highway", Cells: 56, Inputs: 8, Outputs: 7, Seed: 0x6877790001},
	"c532":    {Name: "c532", Cells: 395, Inputs: 35, Outputs: 23, Seed: 0xc5320001},
	"c1355":   {Name: "c1355", Cells: 1451, Inputs: 41, Outputs: 32, Seed: 0xc13550001},
	"c3540":   {Name: "c3540", Cells: 2243, Inputs: 50, Outputs: 22, Seed: 0xc35400001},
}

// BenchmarkNames lists the paper's circuits in ascending size order.
func BenchmarkNames() []string {
	names := make([]string, 0, len(benchSpecs))
	for n := range benchSpecs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return benchSpecs[names[i]].Cells < benchSpecs[names[j]].Cells })
	return names
}

// Benchmark returns the named synthetic stand-in for one of the paper's
// circuits. The same name always yields the identical netlist.
func Benchmark(name string) (*Netlist, error) {
	spec, ok := benchSpecs[name]
	if !ok {
		return nil, fmt.Errorf("netlist: unknown benchmark %q (have %v)", name, BenchmarkNames())
	}
	return Generate(spec)
}

// MustBenchmark is Benchmark but panics on error; the embedded specs are
// known-good.
func MustBenchmark(name string) *Netlist {
	nl, err := Benchmark(name)
	if err != nil {
		panic(err)
	}
	return nl
}

// BenchmarkCells reports the cell count of a named benchmark without
// generating it, or 0 if the name is unknown.
func BenchmarkCells(name string) int {
	return benchSpecs[name].Cells
}

// BenchmarkPairs returns n deterministic pseudo-random pairs of distinct
// cells from a circuit of the given size — the shared trial workload of
// the hot-path microbenchmarks (the go-test benches in
// internal/placement and internal/cost and the ptsbench -hotpath
// driver), so they all measure the identical kernel.
func BenchmarkPairs(n, cells int) [][2]CellID {
	r := rand.New(rand.NewSource(2))
	pairs := make([][2]CellID, n)
	for i := range pairs {
		a := CellID(r.Intn(cells))
		b := CellID(r.Intn(cells))
		for b == a {
			b = CellID(r.Intn(cells))
		}
		pairs[i] = [2]CellID{a, b}
	}
	return pairs
}
