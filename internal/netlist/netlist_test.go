package netlist

import (
	"strings"
	"testing"
)

// tiny builds a hand-written 5-cell circuit:
//
//	pi0 ──n0──► g0 ──n2──► po0
//	pi1 ──n1──► g0
//	pi1 ──n1──► g1 ──n3──► po0
func tiny(t *testing.T) *Netlist {
	t.Helper()
	nl := &Netlist{
		Name: "tiny",
		Cells: []Cell{
			{Name: "pi0", Width: 4, Delay: 0.02, Kind: Input},
			{Name: "pi1", Width: 4, Delay: 0.02, Kind: Input},
			{Name: "g0", Width: 6, Delay: 0.3, Kind: Gate},
			{Name: "g1", Width: 8, Delay: 0.2, Kind: Gate},
			{Name: "po0", Width: 4, Delay: 0.02, Kind: Output},
		},
		Nets: []Net{
			{Name: "n0", Driver: 0, Sinks: []CellID{2}},
			{Name: "n1", Driver: 1, Sinks: []CellID{2, 3}},
			{Name: "n2", Driver: 2, Sinks: []CellID{4}},
			{Name: "n3", Driver: 3, Sinks: []CellID{4}},
		},
	}
	if err := nl.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return nl
}

func TestFinishIndexes(t *testing.T) {
	nl := tiny(t)
	if got := nl.CellNets(2); len(got) != 3 { // n0, n1 (sink), n2 (driver)
		t.Errorf("CellNets(g0) = %v, want 3 nets", got)
	}
	if got := nl.Drives(2); len(got) != 1 || got[0] != 2 {
		t.Errorf("Drives(g0) = %v", got)
	}
	if got := nl.SinkNets(2); len(got) != 2 {
		t.Errorf("SinkNets(g0) = %v", got)
	}
	if nl.NumCells() != 5 || nl.NumNets() != 4 {
		t.Errorf("counts wrong: %d cells %d nets", nl.NumCells(), nl.NumNets())
	}
	if nl.TotalWidth() != 4+4+6+8+4 {
		t.Errorf("TotalWidth = %d", nl.TotalWidth())
	}
}

func TestLevelize(t *testing.T) {
	nl := tiny(t)
	if nl.Level(0) != 0 || nl.Level(1) != 0 {
		t.Error("inputs should be level 0")
	}
	if nl.Level(2) != 1 || nl.Level(3) != 1 {
		t.Errorf("gates should be level 1, got %d %d", nl.Level(2), nl.Level(3))
	}
	if nl.Level(4) != 2 {
		t.Errorf("po0 level = %d", nl.Level(4))
	}
	order := nl.TopoOrder()
	pos := make(map[CellID]int)
	for i, c := range order {
		pos[c] = i
	}
	for i := range nl.Nets {
		n := &nl.Nets[i]
		for _, s := range n.Sinks {
			if pos[n.Driver] >= pos[s] {
				t.Errorf("topo order violated: driver %d after sink %d", n.Driver, s)
			}
		}
	}
}

func TestFinishRejectsCycle(t *testing.T) {
	nl := &Netlist{
		Name: "cyc",
		Cells: []Cell{
			{Name: "a", Width: 1},
			{Name: "b", Width: 1},
		},
		Nets: []Net{
			{Name: "n0", Driver: 0, Sinks: []CellID{1}},
			{Name: "n1", Driver: 1, Sinks: []CellID{0}},
		},
	}
	if err := nl.Finish(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestFinishValidation(t *testing.T) {
	cases := []struct {
		name string
		nl   *Netlist
		want string
	}{
		{"empty", &Netlist{Name: "e"}, "no cells"},
		{"zero width", &Netlist{Name: "w", Cells: []Cell{{Name: "a", Width: 0}}}, "width"},
		{"neg delay", &Netlist{Name: "d", Cells: []Cell{{Name: "a", Width: 1, Delay: -1}}}, "delay"},
		{"bad driver", &Netlist{Name: "bd", Cells: []Cell{{Name: "a", Width: 1}},
			Nets: []Net{{Name: "n", Driver: 5, Sinks: []CellID{0}}}}, "driver"},
		{"no sinks", &Netlist{Name: "ns", Cells: []Cell{{Name: "a", Width: 1}},
			Nets: []Net{{Name: "n", Driver: 0}}}, "sinks"},
		{"bad sink", &Netlist{Name: "bs", Cells: []Cell{{Name: "a", Width: 1}},
			Nets: []Net{{Name: "n", Driver: 0, Sinks: []CellID{9}}}}, "sink"},
		{"dup terminal", &Netlist{Name: "dt", Cells: []Cell{{Name: "a", Width: 1}, {Name: "b", Width: 1}},
			Nets: []Net{{Name: "n", Driver: 0, Sinks: []CellID{1, 1}}}}, "twice"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.nl.Finish()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
		})
	}
}

func TestKindString(t *testing.T) {
	if Gate.String() != "gate" || Input.String() != "input" || Output.String() != "output" {
		t.Error("kind strings wrong")
	}
	if CellKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestComputeStats(t *testing.T) {
	nl := tiny(t)
	s := nl.ComputeStats()
	if s.Cells != 5 || s.Nets != 4 || s.Inputs != 2 || s.Outputs != 1 {
		t.Errorf("stats counts wrong: %+v", s)
	}
	if s.Pins != 2+3+2+2 {
		t.Errorf("pins = %d", s.Pins)
	}
	if s.LogicDepth != 2 {
		t.Errorf("depth = %d", s.LogicDepth)
	}
	if s.MaxNetDegree != 3 {
		t.Errorf("max degree = %d", s.MaxNetDegree)
	}
	if s.String() == "" {
		t.Error("stats String empty")
	}
}

func TestNetDegree(t *testing.T) {
	n := Net{Driver: 0, Sinks: []CellID{1, 2, 3}}
	if n.Degree() != 4 {
		t.Errorf("Degree = %d", n.Degree())
	}
}
