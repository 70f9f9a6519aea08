package placement

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pts/internal/netlist"
	"pts/internal/rng"
)

func testNetlist(t *testing.T, cells int, seed uint64) *netlist.Netlist {
	t.Helper()
	return netlist.MustGenerate(netlist.GenConfig{Name: "p", Cells: cells, Seed: seed})
}

// fullHPWL recomputes the total wirelength from positions alone, the
// oracle for all incremental checks.
func fullHPWL(p *Placement) float64 {
	nl := p.Netlist()
	total := 0.0
	for n := 0; n < nl.NumNets(); n++ {
		net := &nl.Nets[n]
		q := p.PosOf(net.Driver)
		minX, maxX, minY, maxY := q.Col, q.Col, q.Row, q.Row
		for _, s := range net.Sinks {
			q := p.PosOf(s)
			if q.Col < minX {
				minX = q.Col
			}
			if q.Col > maxX {
				maxX = q.Col
			}
			if q.Row < minY {
				minY = q.Row
			}
			if q.Row > maxY {
				maxY = q.Row
			}
		}
		total += float64(maxX-minX) + float64(maxY-minY)
	}
	return total
}

func fullMaxRowWidth(p *Placement) int {
	nl := p.Netlist()
	widths := make([]int, p.Layout().Rows)
	for c := 0; c < nl.NumCells(); c++ {
		widths[p.PosOf(netlist.CellID(c)).Row] += nl.Cells[c].Width
	}
	max := 0
	for _, w := range widths {
		if w > max {
			max = w
		}
	}
	return max
}

func TestAutoLayout(t *testing.T) {
	nl := testNetlist(t, 100, 1)
	l := AutoLayout(nl, 0.9)
	if l.Slots() < 100 {
		t.Fatalf("layout too small: %+v", l)
	}
	if l.Rows < 5 || l.Cols < 5 {
		t.Errorf("layout should be near-square: %+v", l)
	}
	// Default utilization for out-of-range values.
	l2 := AutoLayout(nl, -3)
	if l2.Slots() < 100 {
		t.Errorf("default utilization broken: %+v", l2)
	}
}

func TestLayoutValidate(t *testing.T) {
	if err := (Layout{Rows: 0, Cols: 5}).Validate(); err == nil {
		t.Error("want error for zero rows")
	}
	if err := (Layout{Rows: 5, Cols: 5}).Validate(); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
}

func TestSlotIndexRoundTrip(t *testing.T) {
	l := Layout{Rows: 7, Cols: 11}
	for i := 0; i < l.Slots(); i++ {
		if got := l.SlotIndex(l.SlotPos(i)); got != i {
			t.Fatalf("slot %d round-trips to %d", i, got)
		}
	}
}

func TestNewRejectsTooSmall(t *testing.T) {
	nl := testNetlist(t, 50, 1)
	if _, err := New(nl, Layout{Rows: 2, Cols: 3}); err == nil {
		t.Fatal("want error for too-small layout")
	}
	if _, err := New(nl, Layout{Rows: 0, Cols: 9}); err == nil {
		t.Fatal("want error for degenerate layout")
	}
}

func TestInitialConsistency(t *testing.T) {
	nl := testNetlist(t, 60, 2)
	p, err := New(nl, AutoLayout(nl, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.HPWL(), fullHPWL(p); math.Abs(got-want) > 1e-9 {
		t.Errorf("HPWL %v != full %v", got, want)
	}
	if got, want := p.MaxRowWidth(), fullMaxRowWidth(p); got != want {
		t.Errorf("MaxRowWidth %d != full %d", got, want)
	}
	// Every cell is where slot says it is.
	for c := 0; c < nl.NumCells(); c++ {
		if p.CellAt(p.PosOf(netlist.CellID(c))) != netlist.CellID(c) {
			t.Fatalf("cell %d slot mismatch", c)
		}
	}
}

func TestSwapCellsIncremental(t *testing.T) {
	nl := testNetlist(t, 80, 3)
	p, _ := New(nl, AutoLayout(nl, 0.85))
	r := rng.New(10)
	p.Randomize(r)
	for i := 0; i < 500; i++ {
		a := netlist.CellID(r.Intn(nl.NumCells()))
		b := netlist.CellID(r.Intn(nl.NumCells()))
		wantDelta := p.HPWLDeltaSwap(a, b)
		before := p.HPWL()
		p.SwapCells(a, b)
		if got := p.HPWL() - before; math.Abs(got-wantDelta) > 1e-6 {
			t.Fatalf("step %d: delta %v != predicted %v", i, got, wantDelta)
		}
		if full := fullHPWL(p); math.Abs(p.HPWL()-full) > 1e-6 {
			t.Fatalf("step %d: incremental HPWL %v != full %v", i, p.HPWL(), full)
		}
		if full := fullMaxRowWidth(p); p.MaxRowWidth() != full {
			t.Fatalf("step %d: incremental maxRowWidth %d != full %d", i, p.MaxRowWidth(), full)
		}
	}
}

func TestSwapSelfIsNoop(t *testing.T) {
	nl := testNetlist(t, 40, 4)
	p, _ := New(nl, AutoLayout(nl, 0.9))
	before := p.HPWL()
	p.SwapCells(5, 5)
	if p.HPWL() != before {
		t.Error("self-swap changed HPWL")
	}
}

func TestSwapIsInvolution(t *testing.T) {
	nl := testNetlist(t, 60, 5)
	p, _ := New(nl, AutoLayout(nl, 0.9))
	r := rng.New(77)
	p.Randomize(r)
	before := p.Export()
	beforeHPWL := p.HPWL()
	p.SwapCells(3, 17)
	p.SwapCells(3, 17)
	after := p.Export()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("double swap changed assignment at cell %d", i)
		}
	}
	if math.Abs(p.HPWL()-beforeHPWL) > 1e-9 {
		t.Errorf("double swap changed HPWL: %v vs %v", p.HPWL(), beforeHPWL)
	}
}

func TestMaxRowWidthAfterSwap(t *testing.T) {
	nl := testNetlist(t, 70, 6)
	p, _ := New(nl, AutoLayout(nl, 0.9))
	r := rng.New(9)
	p.Randomize(r)
	for i := 0; i < 200; i++ {
		a := netlist.CellID(r.Intn(nl.NumCells()))
		b := netlist.CellID(r.Intn(nl.NumCells()))
		want := p.MaxRowWidthAfterSwap(a, b)
		q := p.Clone()
		q.SwapCells(a, b)
		if got := q.MaxRowWidth(); got != want {
			t.Fatalf("step %d: predicted maxRowWidth %d, got %d", i, want, got)
		}
	}
}

func TestVisitSwapDeltasSamePosition(t *testing.T) {
	nl := testNetlist(t, 30, 7)
	p, _ := New(nl, AutoLayout(nl, 0.9))
	called := false
	p.VisitSwapDeltas(4, 4, func(netlist.NetID, float64, float64) { called = true })
	if called {
		t.Error("VisitSwapDeltas fired for identical positions")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	nl := testNetlist(t, 90, 8)
	p, _ := New(nl, AutoLayout(nl, 0.8))
	r := rng.New(123)
	p.Randomize(r)
	perm := p.Export()
	hp := p.HPWL()

	q, _ := New(nl, p.Layout())
	if err := q.Import(perm); err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.HPWL()-hp) > 1e-9 {
		t.Errorf("imported HPWL %v != %v", q.HPWL(), hp)
	}
	for c := 0; c < nl.NumCells(); c++ {
		if q.PosOf(netlist.CellID(c)) != p.PosOf(netlist.CellID(c)) {
			t.Fatalf("cell %d position differs after import", c)
		}
	}
}

func TestImportValidation(t *testing.T) {
	nl := testNetlist(t, 30, 9)
	p, _ := New(nl, AutoLayout(nl, 0.9))
	if err := p.Import(make([]int32, 5)); err == nil {
		t.Error("want length error")
	}
	bad := p.Export()
	bad[0] = -1
	if err := p.Import(bad); err == nil {
		t.Error("want range error")
	}
	dup := p.Export()
	dup[0] = dup[1]
	if err := p.Import(dup); err == nil {
		t.Error("want duplicate error")
	}
}

func TestCloneIndependence(t *testing.T) {
	nl := testNetlist(t, 50, 10)
	p, _ := New(nl, AutoLayout(nl, 0.9))
	q := p.Clone()
	q.SwapCells(1, 2)
	if p.PosOf(1) == q.PosOf(1) {
		t.Error("clone shares state with original")
	}
	if math.Abs(fullHPWL(p)-p.HPWL()) > 1e-9 {
		t.Error("original corrupted by clone mutation")
	}
	if math.Abs(fullHPWL(q)-q.HPWL()) > 1e-9 {
		t.Error("clone bookkeeping wrong after mutation")
	}
}

func TestRandomizeKeepsInvariants(t *testing.T) {
	nl := testNetlist(t, 64, 11)
	p, _ := New(nl, AutoLayout(nl, 0.75))
	r := rng.New(5)
	for trial := 0; trial < 5; trial++ {
		p.Randomize(r)
		seen := map[Pos]bool{}
		for c := 0; c < nl.NumCells(); c++ {
			at := p.PosOf(netlist.CellID(c))
			if seen[at] {
				t.Fatal("two cells in one slot after Randomize")
			}
			seen[at] = true
			if p.CellAt(at) != netlist.CellID(c) {
				t.Fatal("slot table inconsistent after Randomize")
			}
		}
		if math.Abs(p.HPWL()-fullHPWL(p)) > 1e-9 {
			t.Fatal("HPWL wrong after Randomize")
		}
	}
}

// Property: for random circuits and random swap sequences the maintained
// HPWL equals the recomputed one.
func TestQuickIncrementalHPWL(t *testing.T) {
	f := func(seed uint64, swapsRaw []uint16) bool {
		nl := netlist.MustGenerate(netlist.GenConfig{Name: "q", Cells: 40, Seed: seed})
		p, err := New(nl, AutoLayout(nl, 0.9))
		if err != nil {
			return false
		}
		p.Randomize(rng.New(seed))
		n := nl.NumCells()
		for _, sw := range swapsRaw {
			a := netlist.CellID(int(sw>>8) % n)
			b := netlist.CellID(int(sw&0xff) % n)
			p.SwapCells(a, b)
		}
		return math.Abs(p.HPWL()-fullHPWL(p)) < 1e-6 &&
			p.MaxRowWidth() == fullMaxRowWidth(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestASCII(t *testing.T) {
	nl := testNetlist(t, 30, 12)
	p, _ := New(nl, AutoLayout(nl, 0.9))
	art := p.ASCII(40)
	if !strings.Contains(art, "pi0") {
		t.Error("ASCII grid missing cell names")
	}
	summary := p.ASCII(2)
	if !strings.Contains(summary, "hpwl") {
		t.Error("ASCII summary missing")
	}
}

func BenchmarkSwapCells(b *testing.B) {
	nl := netlist.MustBenchmark("c1355")
	p, _ := New(nl, AutoLayout(nl, 0.9))
	r := rng.New(1)
	p.Randomize(r)
	n := nl.NumCells()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := netlist.CellID(r.Intn(n))
		c := netlist.CellID(r.Intn(n))
		p.SwapCells(a, c)
	}
}

func BenchmarkHPWLDeltaSwap(b *testing.B) {
	nl := netlist.MustBenchmark("c1355")
	p, _ := New(nl, AutoLayout(nl, 0.9))
	r := rng.New(1)
	p.Randomize(r)
	n := nl.NumCells()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := netlist.CellID(r.Intn(n))
		c := netlist.CellID(r.Intn(n))
		_ = p.HPWLDeltaSwap(a, c)
	}
}

// BenchmarkFullRecompute quantifies what the incremental bookkeeping
// saves: compare it with BenchmarkSwapCells and BenchmarkHPWLDeltaSwap
// on the same circuit.
func BenchmarkFullRecompute(b *testing.B) {
	nl := netlist.MustBenchmark("c1355")
	p, _ := New(nl, AutoLayout(nl, 0.9))
	p.Randomize(rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.recomputeAll()
	}
}
