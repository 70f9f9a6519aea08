package cost

import (
	"math"
	"testing"
	"testing/quick"

	"pts/internal/netlist"
	"pts/internal/placement"
	"pts/internal/rng"
)

func newEval(t testing.TB, cells int, seed uint64) *Evaluator {
	t.Helper()
	nl := netlist.MustGenerate(netlist.GenConfig{Name: "cost", Cells: cells, Seed: seed})
	p, err := placement.New(nl, placement.AutoLayout(nl, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rng.New(seed + 100))
	e, err := NewEvaluator(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEvaluatorInitialCost(t *testing.T) {
	e := newEval(t, 100, 1)
	c := e.Cost()
	if c < 0 || c > 1 || math.IsNaN(c) {
		t.Fatalf("initial cost %v outside [0,1]", c)
	}
	// Initial objectives sit strictly between goal and ceiling, so the
	// cost must be interior (gradient exists in both directions).
	if c == 0 || c == 1 {
		t.Fatalf("initial cost %v should be interior", c)
	}
	o := e.Objectives()
	if o.Wirelength <= 0 || o.Delay <= 0 || o.Area <= 0 {
		t.Fatalf("degenerate initial objectives: %+v", o)
	}
}

func TestBadBetaRejected(t *testing.T) {
	nl := netlist.MustGenerate(netlist.GenConfig{Name: "b", Cells: 50, Seed: 2})
	p, _ := placement.New(nl, placement.AutoLayout(nl, 0.9))
	cfg := DefaultConfig()
	cfg.Beta = 1.5
	if _, err := NewEvaluator(p, cfg); err == nil {
		t.Fatal("beta out of range accepted")
	}
}

func TestSwapDeltaMatchesApply(t *testing.T) {
	e := newEval(t, 90, 3)
	r := rng.New(7)
	n := int(e.NumCells())
	for i := 0; i < 300; i++ {
		a := netlist.CellID(r.Intn(n))
		b := netlist.CellID(r.Intn(n))
		before := e.Cost()
		predicted := e.SwapDelta(a, b)
		want := e.swapObjectives(a, b)
		e.ApplySwap(a, b)
		// The one-walk commit maintains exactly what the trial scored.
		if got := e.Cost() - before; got != predicted {
			t.Fatalf("step %d: applied delta %v != predicted %v", i, got, predicted)
		}
		if a != b && e.Objectives() != want {
			t.Fatalf("step %d: applied objectives %+v != trial %+v", i, e.Objectives(), want)
		}
	}
}

func TestApplySwapIsInvolution(t *testing.T) {
	e := newEval(t, 70, 4)
	before := e.Cost()
	beforeObj := e.Objectives()
	e.ApplySwap(3, 40)
	e.ApplySwap(3, 40)
	if math.Abs(e.Cost()-before) > 1e-9 {
		t.Fatalf("cost after double swap %v != %v", e.Cost(), before)
	}
	o := e.Objectives()
	if math.Abs(o.Wirelength-beforeObj.Wirelength) > 1e-6 ||
		math.Abs(o.Delay-beforeObj.Delay) > 1e-9 ||
		o.Area != beforeObj.Area {
		t.Fatalf("objectives after double swap %+v != %+v", o, beforeObj)
	}
}

func TestSelfSwapIsFree(t *testing.T) {
	e := newEval(t, 50, 5)
	if e.SwapDelta(7, 7) != 0 {
		t.Error("self swap delta should be 0")
	}
	before := e.Cost()
	e.ApplySwap(7, 7)
	if e.Cost() != before {
		t.Error("self swap changed cost")
	}
}

func TestRefreshClearsDrift(t *testing.T) {
	e := newEval(t, 80, 6)
	r := rng.New(11)
	n := int(e.NumCells())
	for i := 0; i < 500; i++ {
		e.ApplySwap(netlist.CellID(r.Intn(n)), netlist.CellID(r.Intn(n)))
	}
	objBefore := e.Objectives()
	e.Refresh()
	objAfter := e.Objectives()
	// Wirelength and area are maintained exactly; delay may step because
	// criticalities move.
	if math.Abs(objBefore.Wirelength-objAfter.Wirelength) > 1e-6 {
		t.Errorf("wirelength drifted: %v vs %v", objBefore.Wirelength, objAfter.Wirelength)
	}
	if objBefore.Area != objAfter.Area {
		t.Errorf("area drifted: %v vs %v", objBefore.Area, objAfter.Area)
	}
	if e.CriticalPath() <= 0 {
		t.Error("CPD should be positive after Refresh")
	}
}

func TestCostMonotoneInObjectives(t *testing.T) {
	e := newEval(t, 60, 7)
	o := e.Objectives()
	base := e.CostOf(o)
	worse := o
	worse.Wirelength *= 1.05
	if e.CostOf(worse) < base {
		t.Error("cost decreased when wirelength worsened")
	}
	better := o
	better.Wirelength *= 0.95
	if e.CostOf(better) > base {
		t.Error("cost increased when wirelength improved")
	}
}

// Property: cost is always within [0,1] for arbitrary objective vectors.
func TestQuickCostBounds(t *testing.T) {
	e := newEval(t, 40, 8)
	f := func(w, d, a uint32) bool {
		o := Objectives{
			Wirelength: float64(w),
			Delay:      float64(d) / 1000,
			Area:       float64(a % 10000),
		}
		c := e.CostOf(o)
		return c >= 0 && c <= 1 && !math.IsNaN(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExportImportPerm(t *testing.T) {
	e := newEval(t, 70, 9)
	r := rng.New(13)
	n := int(e.NumCells())
	for i := 0; i < 50; i++ {
		e.ApplySwap(netlist.CellID(r.Intn(n)), netlist.CellID(r.Intn(n)))
	}
	perm := e.ExportPerm()
	cost := e.Cost()

	e2 := newEval(t, 70, 9) // same circuit and goals, different state
	if err := e2.ImportPerm(perm); err != nil {
		t.Fatal(err)
	}
	// Imported evaluator refreshes criticalities, so compare after
	// refreshing e too.
	e.Refresh()
	if math.Abs(e2.Cost()-e.Cost()) > 1e-9 {
		t.Fatalf("imported cost %v != %v", e2.Cost(), e.Cost())
	}
	if math.Abs(cost-e.Cost()) > 0.2 {
		t.Fatalf("refresh moved cost implausibly: %v -> %v", cost, e.Cost())
	}
	if err := e2.ImportPerm(perm[:3]); err == nil {
		t.Error("short perm accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	e := newEval(t, 60, 10)
	c := e.Clone()
	if math.Abs(c.Cost()-e.Cost()) > 1e-12 {
		t.Fatalf("clone cost differs: %v vs %v", c.Cost(), e.Cost())
	}
	c.ApplySwap(1, 2)
	if math.Abs(c.Cost()-e.Cost()) < 1e-15 && c.Objectives() == e.Objectives() {
		t.Error("clone mutation did not diverge (suspicious sharing)")
	}
	// Original still consistent.
	before := e.Cost()
	e.Refresh()
	if math.Abs(e.Cost()-before) > 0.1 {
		t.Errorf("original corrupted by clone: %v -> %v", before, e.Cost())
	}
	// Deltas agree between clone and original on the clone's own state.
	d := c.SwapDelta(3, 4)
	cBefore := c.Cost()
	c.ApplySwap(3, 4)
	if math.Abs((c.Cost()-cBefore)-d) > 1e-9 {
		t.Error("clone delta inconsistent")
	}
}

func TestImprovingSwapsReduceCost(t *testing.T) {
	// Greedy descent over random swaps must reduce the cost — the
	// evaluator provides a usable gradient for the search.
	e := newEval(t, 120, 11)
	r := rng.New(17)
	n := int(e.NumCells())
	start := e.Cost()
	improved := 0
	for i := 0; i < 3000; i++ {
		a := netlist.CellID(r.Intn(n))
		b := netlist.CellID(r.Intn(n))
		if e.SwapDelta(a, b) < 0 {
			e.ApplySwap(a, b)
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("no improving swap found in 3000 trials")
	}
	if e.Cost() >= start {
		t.Fatalf("greedy descent did not reduce cost: %v -> %v", start, e.Cost())
	}
}

// The hot-path benchmarks (BenchmarkSwapDelta, BenchmarkApplySwap) live
// in bench_test.go and run on the paper's named circuits.
