// Command netgen generates or describes the synthetic benchmark
// circuits.
//
// Usage:
//
//	netgen -list                        # list the paper's circuits
//	netgen -circuit c532                # describe one circuit
//	netgen -circuit c532 -o c532.net    # write it in the text format
//	netgen -cells 800 -seed 7 -o x.net  # generate a custom circuit
package main

import (
	"flag"
	"fmt"
	"os"

	"pts/internal/netlist"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list the benchmark circuits")
		circuit = flag.String("circuit", "", "benchmark circuit to emit/describe")
		cells   = flag.Int("cells", 0, "generate a custom circuit with this many cells")
		inputs  = flag.Int("inputs", 0, "primary inputs for the custom circuit (0 = auto)")
		outputs = flag.Int("outputs", 0, "primary outputs for the custom circuit (0 = auto)")
		seed    = flag.Uint64("seed", 1, "generator seed for the custom circuit")
		name    = flag.String("name", "custom", "name of the custom circuit")
		out     = flag.String("o", "", "write the netlist to this file (default: describe only)")
		dot     = flag.String("dot", "", "write a Graphviz rendering to this file")
		report  = flag.Bool("report", false, "print structural distributions (degrees, fanout, levels)")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmark circuits (synthetic stand-ins with the paper's cell counts):")
		for _, n := range netlist.BenchmarkNames() {
			fmt.Printf("  %-8s %5d cells\n", n, netlist.BenchmarkCells(n))
		}
		return
	}

	var nl *netlist.Netlist
	var err error
	switch {
	case *circuit != "":
		nl, err = netlist.Benchmark(*circuit)
	case *cells > 0:
		nl, err = netlist.Generate(netlist.GenConfig{
			Name: *name, Cells: *cells, Inputs: *inputs, Outputs: *outputs, Seed: *seed,
		})
	default:
		err = fmt.Errorf("nothing to do: pass -list, -circuit or -cells (see -h)")
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s: %s\n", nl.Name, nl.ComputeStats())
	if *report {
		if err := nl.Analyze().WriteReport(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := writeTo(*out, func(f *os.File) error { return netlist.Write(f, nl) }); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *dot != "" {
		if err := writeTo(*dot, func(f *os.File) error { return netlist.WriteDOT(f, nl) }); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *dot)
	}
}

func writeTo(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netgen:", err)
	os.Exit(1)
}
