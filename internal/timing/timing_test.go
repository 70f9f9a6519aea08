package timing

import (
	"math"
	"testing"

	"pts/internal/netlist"
	"pts/internal/placement"
	"pts/internal/rng"
)

// chain builds pi -> g0 -> g1 -> po with unit-ish delays, placed on one
// row so wire lengths are exactly the slot distances.
func chain(t *testing.T) (*netlist.Netlist, *placement.Placement) {
	t.Helper()
	nl := &netlist.Netlist{
		Name: "chain",
		Cells: []netlist.Cell{
			{Name: "pi", Width: 1, Delay: 0.0, Kind: netlist.Input},
			{Name: "g0", Width: 1, Delay: 1.0, Kind: netlist.Gate},
			{Name: "g1", Width: 1, Delay: 2.0, Kind: netlist.Gate},
			{Name: "po", Width: 1, Delay: 0.0, Kind: netlist.Output},
		},
		Nets: []netlist.Net{
			{Name: "n0", Driver: 0, Sinks: []netlist.CellID{1}},
			{Name: "n1", Driver: 1, Sinks: []netlist.CellID{2}},
			{Name: "n2", Driver: 2, Sinks: []netlist.CellID{3}},
		},
	}
	if err := nl.Finish(); err != nil {
		t.Fatal(err)
	}
	p, err := placement.New(nl, placement.Layout{Rows: 1, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	return nl, p
}

func TestAnalyzeChainByHand(t *testing.T) {
	nl, p := chain(t)
	cfg := Config{LoadFactor: 0.5, WireDelayPerUnit: 0.1}
	a := New(nl, cfg)
	cpd := a.Analyze(p)

	// Cells sit at columns 0..3; every net spans 1 slot => net delay 0.1.
	// cellDelay: pi = 0 + 0.5*1, g0 = 1 + 0.5, g1 = 2 + 0.5, po = 0.
	// arrival(pi) = 0.5
	// arrival(g0) = 0.5 + 0.1 + 1.5 = 2.1
	// arrival(g1) = 2.1 + 0.1 + 2.5 = 4.7
	// arrival(po) = 4.7 + 0.1 + 0   = 4.8
	want := 4.8
	if math.Abs(cpd-want) > 1e-9 {
		t.Fatalf("CPD = %v, want %v", cpd, want)
	}
	if a.CriticalPath() != cpd {
		t.Error("CriticalPath() disagrees with Analyze return")
	}
	// A pure chain is entirely critical: slack 0 everywhere, criticality 1.
	for c := 0; c < nl.NumCells(); c++ {
		if s := a.Slack(netlist.CellID(c)); math.Abs(s) > 1e-9 {
			t.Errorf("cell %d slack = %v, want 0", c, s)
		}
	}
	for n := 0; n < nl.NumNets(); n++ {
		if got := a.Criticality(netlist.NetID(n)); math.Abs(got-1) > 1e-9 {
			t.Errorf("net %d criticality = %v, want 1", n, got)
		}
	}
}

// diamond builds two parallel paths of different intrinsic delay; the
// slow path must be critical and the fast one slack-positive.
func diamond(t *testing.T) (*netlist.Netlist, *placement.Placement) {
	t.Helper()
	nl := &netlist.Netlist{
		Name: "diamond",
		Cells: []netlist.Cell{
			{Name: "pi", Width: 1, Delay: 0, Kind: netlist.Input},
			{Name: "slow", Width: 1, Delay: 10.0, Kind: netlist.Gate},
			{Name: "fast", Width: 1, Delay: 1.0, Kind: netlist.Gate},
			{Name: "po", Width: 1, Delay: 0, Kind: netlist.Output},
		},
		Nets: []netlist.Net{
			{Name: "src", Driver: 0, Sinks: []netlist.CellID{1, 2}},
			{Name: "ns", Driver: 1, Sinks: []netlist.CellID{3}},
			{Name: "nf", Driver: 2, Sinks: []netlist.CellID{3}},
		},
	}
	if err := nl.Finish(); err != nil {
		t.Fatal(err)
	}
	p, err := placement.New(nl, placement.Layout{Rows: 2, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	return nl, p
}

func TestAnalyzeDiamondCriticality(t *testing.T) {
	nl, p := diamond(t)
	a := New(nl, Config{LoadFactor: 0.1, WireDelayPerUnit: 0.01})
	a.Analyze(p)
	slowCrit := a.Criticality(1) // net ns driven by slow
	fastCrit := a.Criticality(2) // net nf driven by fast
	if slowCrit <= fastCrit {
		t.Fatalf("slow path criticality %v should exceed fast path %v", slowCrit, fastCrit)
	}
	if math.Abs(slowCrit-1) > 1e-9 {
		t.Errorf("critical net should have criticality 1, got %v", slowCrit)
	}
	if s := a.Slack(2); s <= 0 {
		t.Errorf("fast gate should have positive slack, got %v", s)
	}
	_ = nl
}

func TestCriticalityBounds(t *testing.T) {
	nl := netlist.MustGenerate(netlist.GenConfig{Name: "cb", Cells: 200, Seed: 4})
	p, _ := placement.New(nl, placement.AutoLayout(nl, 0.9))
	p.Randomize(rng.New(3))
	a := New(nl, DefaultConfig())
	a.Analyze(p)
	for n, c := range a.Criticalities() {
		if c < 0 || c > 1 || math.IsNaN(c) {
			t.Fatalf("net %d criticality %v outside [0,1]", n, c)
		}
	}
	// At least one net must be fully critical (the critical path exists).
	max := 0.0
	for _, c := range a.Criticalities() {
		if c > max {
			max = c
		}
	}
	if max < 1-1e-9 {
		t.Errorf("no critical net found; max criticality %v", max)
	}
}

func TestSlackNonNegative(t *testing.T) {
	nl := netlist.MustGenerate(netlist.GenConfig{Name: "sl", Cells: 150, Seed: 6})
	p, _ := placement.New(nl, placement.AutoLayout(nl, 0.9))
	p.Randomize(rng.New(8))
	a := New(nl, DefaultConfig())
	a.Analyze(p)
	for c := 0; c < nl.NumCells(); c++ {
		if s := a.Slack(netlist.CellID(c)); s < -1e-9 {
			t.Fatalf("cell %d has negative slack %v", c, s)
		}
	}
}

func TestWireDelayScalingMonotone(t *testing.T) {
	nl := netlist.MustGenerate(netlist.GenConfig{Name: "mono", Cells: 120, Seed: 7})
	p, _ := placement.New(nl, placement.AutoLayout(nl, 0.9))
	p.Randomize(rng.New(2))
	prev := 0.0
	for i, w := range []float64{0, 0.01, 0.05, 0.2} {
		a := New(nl, Config{LoadFactor: 0.04, WireDelayPerUnit: w})
		cpd := a.Analyze(p)
		if cpd < prev {
			t.Fatalf("CPD decreased (%v -> %v) when wire delay grew", prev, cpd)
		}
		if i > 0 && cpd == prev {
			t.Fatalf("CPD did not grow with wire delay factor %v", w)
		}
		prev = cpd
	}
}

func TestWeightedWireDelayMatchesManual(t *testing.T) {
	nl := netlist.MustGenerate(netlist.GenConfig{Name: "ww", Cells: 90, Seed: 9})
	p, _ := placement.New(nl, placement.AutoLayout(nl, 0.9))
	p.Randomize(rng.New(4))
	a := New(nl, DefaultConfig())
	a.Analyze(p)
	want := 0.0
	for n := 0; n < nl.NumNets(); n++ {
		want += a.Criticality(netlist.NetID(n)) * a.Config().WireDelayPerUnit * p.NetHPWL(netlist.NetID(n))
	}
	if got := a.WeightedWireDelay(p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("WeightedWireDelay %v != manual %v", got, want)
	}
}

func TestWeightedDeltaSwapConsistent(t *testing.T) {
	nl := netlist.MustGenerate(netlist.GenConfig{Name: "wd", Cells: 80, Seed: 10})
	p, _ := placement.New(nl, placement.AutoLayout(nl, 0.9))
	r := rng.New(5)
	p.Randomize(r)
	a := New(nl, DefaultConfig())
	a.Analyze(p)
	for i := 0; i < 200; i++ {
		x := netlist.CellID(r.Intn(nl.NumCells()))
		y := netlist.CellID(r.Intn(nl.NumCells()))
		before := a.WeightedWireDelay(p)
		predicted := a.WeightedDeltaSwap(p, x, y)
		p.SwapCells(x, y)
		after := a.WeightedWireDelay(p)
		if math.Abs((after-before)-predicted) > 1e-6 {
			t.Fatalf("step %d: delta %v != predicted %v", i, after-before, predicted)
		}
	}
}

func TestFreshAnalyzerDefaultsCriticalityOne(t *testing.T) {
	nl := netlist.MustGenerate(netlist.GenConfig{Name: "fr", Cells: 50, Seed: 11})
	a := New(nl, DefaultConfig())
	for n := 0; n < nl.NumNets(); n++ {
		if a.Criticality(netlist.NetID(n)) != 1 {
			t.Fatal("criticalities should default to 1 before first Analyze")
		}
	}
}

// oracle is the per-pin formulation of Analyze: every gate delay and
// every wire delay is recomputed at each pin that reads it. Analyze
// tabulates both instead and must match it bit for bit.
type oracle struct {
	nl                      *netlist.Netlist
	cfg                     Config
	arrival, required, crit []float64
	cpd                     float64
}

func (o *oracle) cellDelay(c netlist.CellID) float64 {
	d := o.nl.Cells[c].Delay
	for _, n := range o.nl.Drives(c) {
		d += o.cfg.LoadFactor * float64(len(o.nl.Nets[n].Sinks))
	}
	return d
}

func (o *oracle) netDelay(p *placement.Placement, n netlist.NetID) float64 {
	return o.cfg.WireDelayPerUnit * p.NetHPWL(n)
}

func (o *oracle) analyze(p *placement.Placement) {
	nl := o.nl
	o.arrival = make([]float64, nl.NumCells())
	o.required = make([]float64, nl.NumCells())
	o.crit = make([]float64, nl.NumNets())
	order := nl.TopoOrder()
	for _, c := range order {
		in := 0.0
		for _, n := range nl.SinkNets(c) {
			if t := o.arrival[nl.Nets[n].Driver] + o.netDelay(p, n); t > in {
				in = t
			}
		}
		o.arrival[c] = in + o.cellDelay(c)
	}
	o.cpd = 0
	for _, t := range o.arrival {
		if t > o.cpd {
			o.cpd = t
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		c := order[i]
		req := o.cpd
		for _, n := range nl.Drives(c) {
			nd := o.netDelay(p, n)
			for _, s := range nl.Nets[n].Sinks {
				if t := o.required[s] - o.cellDelay(s) - nd; t < req {
					req = t
				}
			}
		}
		o.required[c] = req
	}
	for n := range o.crit {
		net := &nl.Nets[n]
		nd := o.netDelay(p, netlist.NetID(n))
		slack := math.Inf(1)
		for _, s := range net.Sinks {
			if sl := (o.required[s] - o.cellDelay(s)) - (o.arrival[net.Driver] + nd); sl < slack {
				slack = sl
			}
		}
		switch c := 1 - slack/o.cpd; {
		case o.cpd <= 0:
			o.crit[n] = 1
		case c < 0:
			o.crit[n] = 0
		case c > 1:
			o.crit[n] = 1
		default:
			o.crit[n] = c
		}
	}
}

// TestAnalyzeMatchesPerPinOracle asserts that tabulating gate and wire
// delays changes no bit of the analysis: arrival times, required
// times, criticalities and the CPD on random placements of c532 and
// c1355, with one analyzer reused across placements.
func TestAnalyzeMatchesPerPinOracle(t *testing.T) {
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
			}
		}
	}
	for _, circuit := range []string{"c532", "c1355"} {
		nl := netlist.MustBenchmark(circuit)
		p, err := placement.New(nl, placement.AutoLayout(nl, 0.9))
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(17)
		a := New(nl, DefaultConfig())
		o := &oracle{nl: nl, cfg: DefaultConfig()}
		for round := 0; round < 8; round++ {
			p.Randomize(r)
			for i := 0; i < 50; i++ { // and some incremental commits
				x, y := netlist.CellID(r.Intn(nl.NumCells())), netlist.CellID(r.Intn(nl.NumCells()))
				p.SwapCells(x, y)
			}
			cpd := a.Analyze(p)
			o.analyze(p)
			if math.Float64bits(cpd) != math.Float64bits(o.cpd) {
				t.Fatalf("%s round %d: CPD %v, oracle %v", circuit, round, cpd, o.cpd)
			}
			same(circuit+" arrival", a.arrival, o.arrival)
			same(circuit+" required", a.required, o.required)
			same(circuit+" criticality", a.crit, o.crit)
		}
	}
}

// TestAnalyzeAllocFree asserts a full timing analysis allocates
// nothing; CI runs it with the trial-kernel alloc assertions.
func TestAnalyzeAllocFree(t *testing.T) {
	nl := netlist.MustBenchmark("c532")
	p, _ := placement.New(nl, placement.AutoLayout(nl, 0.9))
	p.Randomize(rng.New(1))
	a := New(nl, DefaultConfig())
	if allocs := testing.AllocsPerRun(50, func() { a.Analyze(p) }); allocs != 0 {
		t.Errorf("Analyze allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	for _, circuit := range []string{"c532", "c1355"} {
		b.Run(circuit, func(b *testing.B) {
			nl := netlist.MustBenchmark(circuit)
			p, _ := placement.New(nl, placement.AutoLayout(nl, 0.9))
			p.Randomize(rng.New(1))
			a := New(nl, DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Analyze(p)
			}
		})
	}
}

func BenchmarkWeightedDeltaSwap(b *testing.B) {
	nl := netlist.MustBenchmark("c1355")
	p, _ := placement.New(nl, placement.AutoLayout(nl, 0.9))
	r := rng.New(1)
	p.Randomize(r)
	a := New(nl, DefaultConfig())
	a.Analyze(p)
	n := nl.NumCells()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := netlist.CellID(r.Intn(n))
		y := netlist.CellID(r.Intn(n))
		_ = a.WeightedDeltaSwap(p, x, y)
	}
}
