package tabu_test

import (
	"math"
	"testing"
	"testing/quick"

	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/placement"
	"pts/internal/qap"
	"pts/internal/rng"
	"pts/internal/tabu"
)

// Compile-time checks: both domains implement the engine interface.
var (
	_ tabu.Problem   = (*qap.State)(nil)
	_ tabu.Problem   = cost.Problem{}
	_ tabu.Refresher = (*qap.State)(nil)
	_ tabu.Refresher = cost.Problem{}
)

func qapProblem(t testing.TB, n int, seed uint64) *qap.State {
	t.Helper()
	return qap.NewState(qap.Random(n, seed), seed+1)
}

func placementProblem(t testing.TB, cells int, seed uint64) cost.Problem {
	t.Helper()
	nl := netlist.MustGenerate(netlist.GenConfig{Name: "tabu", Cells: cells, Seed: seed})
	p, err := placement.New(nl, placement.AutoLayout(nl, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rng.New(seed + 7))
	ev, err := cost.NewEvaluator(p, cost.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return cost.Problem{Ev: ev}
}

func TestBuildCompoundLeavesMoveApplied(t *testing.T) {
	prob := qapProblem(t, 20, 1)
	before := prob.Cost()
	r := rng.New(5)
	move := tabu.BuildCompound(prob, r, tabu.CompoundParams{Trials: 6, Depth: 4}, nil)
	if move.Empty() {
		t.Fatal("no move built")
	}
	if math.Abs(prob.Cost()-(before+move.Delta)) > 1e-6 {
		t.Fatalf("cost %v != before %v + delta %v", prob.Cost(), before, move.Delta)
	}
	move.Undo(prob)
	if math.Abs(prob.Cost()-before) > 1e-6 {
		t.Fatalf("undo did not restore cost: %v vs %v", prob.Cost(), before)
	}
}

func TestBuildCompoundEarlyAccept(t *testing.T) {
	// With many trials on a random QAP start, an improving first step is
	// near-certain; depth must then be cut short.
	prob := qapProblem(t, 30, 2)
	r := rng.New(9)
	found := false
	for i := 0; i < 20 && !found; i++ {
		move := tabu.BuildCompound(prob, r, tabu.CompoundParams{Trials: 40, Depth: 5}, nil)
		if move.Delta < 0 && len(move.Swaps) < 5 {
			found = true
		}
		move.Undo(prob)
	}
	if !found {
		t.Fatal("no early-accepted improving compound move in 20 attempts")
	}
}

func TestBuildCompoundRespectsRange(t *testing.T) {
	prob := qapProblem(t, 40, 3)
	r := rng.New(11)
	for i := 0; i < 50; i++ {
		move := tabu.BuildCompound(prob, r, tabu.CompoundParams{
			Trials: 4, Depth: 3, RangeLo: 10, RangeHi: 20,
		}, nil)
		for _, s := range move.Swaps {
			if s.A < 10 || s.A >= 20 {
				t.Fatalf("first element %d outside range [10,20)", s.A)
			}
		}
		move.Undo(prob)
	}
}

func TestBuildCompoundStopCallback(t *testing.T) {
	prob := qapProblem(t, 25, 4)
	r := rng.New(13)
	calls := 0
	move := tabu.BuildCompound(prob, r, tabu.CompoundParams{Trials: 1, Depth: 10}, func() bool {
		calls++
		return calls >= 2 // interrupt after two steps
	})
	if len(move.Swaps) > 2 {
		t.Fatalf("interrupt ignored: %d swaps", len(move.Swaps))
	}
	if calls == 0 {
		t.Fatal("step callback never ran")
	}
	move.Undo(prob)
}

func TestBuildCompoundDegenerate(t *testing.T) {
	// Size < 2: no move possible.
	ins := qap.Random(1, 5)
	prob := qap.NewState(ins, 6)
	move := tabu.BuildCompound(prob, rng.New(1), tabu.CompoundParams{Trials: 3, Depth: 3}, nil)
	if !move.Empty() {
		t.Fatal("move built on size-1 problem")
	}
}

func TestSelectAdmissible(t *testing.T) {
	l := tabu.NewList()
	mk := func(delta float64, swaps ...tabu.Swap) tabu.CompoundMove {
		return tabu.CompoundMove{Swaps: swaps, Delta: delta}
	}
	cands := []tabu.CompoundMove{
		mk(5, tabu.Swap{A: 1, B: 2}),
		mk(-3, tabu.Swap{A: 3, B: 4}),
		mk(-1, tabu.Swap{A: 5, B: 6}),
	}
	// Nothing tabu: best delta wins.
	v := tabu.SelectAdmissible(cands, 100, 90, l, 0)
	if v.Index != 1 || v.Aspired || v.Fallback {
		t.Fatalf("want best candidate 1, got %+v", v)
	}
	// Best is tabu and does not aspire: next best wins.
	l.Add(tabu.Attr(3, 4), 100)
	v = tabu.SelectAdmissible(cands, 100, 90, l, 0)
	if v.Index != 2 || v.TabuRejected != 1 {
		t.Fatalf("want candidate 2 after one rejection, got %+v", v)
	}
	// Best is tabu but aspires (100-3 < 98).
	v = tabu.SelectAdmissible(cands, 100, 98, l, 0)
	if v.Index != 1 || !v.Aspired {
		t.Fatalf("want aspired candidate 1, got %+v", v)
	}
	// All tabu, none aspire: least-tenure fallback.
	l.Add(tabu.Attr(5, 6), 50)
	l.Add(tabu.Attr(1, 2), 60)
	v = tabu.SelectAdmissible(cands, 100, 0, l, 0)
	if !v.Fallback || v.Index != 2 {
		t.Fatalf("want fallback candidate 2 (soonest expiry), got %+v", v)
	}
	// Only empty candidates.
	v = tabu.SelectAdmissible([]tabu.CompoundMove{{}, {}}, 1, 0, l, 0)
	if v.Index != -1 {
		t.Fatalf("want -1 for empty candidates, got %+v", v)
	}
}

// memoryWalk runs the TSW's iteration on its own over prob: nCands
// candidate compound moves built from the current solution, one
// admissible choice, its swaps made tabu for tenure iterations. It
// returns the total tabu rejections and aspirations of the walk.
func memoryWalk(prob tabu.Problem, tenure, nCands int, p tabu.CompoundParams, iters int, seed uint64) (rejected, aspired int) {
	r := rng.New(seed)
	list := tabu.NewList()
	best := prob.Cost()
	cands := make([]tabu.CompoundMove, nCands)
	for iter := int64(1); iter <= int64(iters); iter++ {
		for i := range cands {
			cands[i] = tabu.BuildCompound(prob, r, p, nil)
			cands[i].Undo(prob)
		}
		v := tabu.SelectAdmissible(cands, prob.Cost(), best, list, iter)
		rejected += v.TabuRejected
		if v.Aspired {
			aspired++
		}
		if v.Index < 0 {
			continue
		}
		cands[v.Index].Apply(prob)
		for _, s := range cands[v.Index].Swaps {
			list.Add(s.Attribute(), iter+int64(tenure))
		}
		best = min(best, prob.Cost())
	}
	return rejected, aspired
}

func TestSearchTabuRejectionHappens(t *testing.T) {
	// Tiny problem and long tenure force tabu collisions.
	prob := qapProblem(t, 6, 31)
	rejected, _ := memoryWalk(prob, 50, 3, tabu.CompoundParams{Trials: 3, Depth: 1}, 300, 5)
	if rejected == 0 {
		t.Fatal("no tabu rejections on a tiny problem with long tenure — memory inert?")
	}
}

func TestSearchAspirationHappens(t *testing.T) {
	// Aspirations are rare; scan seeds until one occurs.
	for seed := uint64(0); seed < 25; seed++ {
		prob := qapProblem(t, 10, seed)
		if _, aspired := memoryWalk(prob, 30, 3, tabu.CompoundParams{Trials: 8, Depth: 2}, 400, seed); aspired > 0 {
			return
		}
	}
	t.Fatal("no aspiration in 25 seeds — criterion never fires")
}

func TestFrequencyLeastMoved(t *testing.T) {
	f := tabu.NewFrequency(10)
	f.BumpSwap(1, 2)
	f.BumpSwap(1, 3)
	r := rng.NewSplitMix64(2)
	// Elements 0,4..9 have count 0; LeastMoved must return one of them.
	for i := 0; i < 20; i++ {
		e := f.LeastMoved(r, 0, 10)
		if c := f.Count(e); c != 0 {
			t.Fatalf("LeastMoved returned element with count %d", c)
		}
	}
	// Restricted range containing only moved elements.
	e := f.LeastMoved(r, 2, 4)
	if e != 2 && e != 3 {
		t.Fatalf("LeastMoved out of range: %d", e)
	}
	if f.Total() != 4 {
		t.Fatalf("Total = %d, want 4", f.Total())
	}
	f.Reset()
	if f.Total() != 0 || f.Count(1) != 0 {
		t.Fatal("Reset incomplete")
	}
}

// Property: BuildCompound followed by Undo restores the exact solution.
func TestQuickCompoundUndoIdentity(t *testing.T) {
	f := func(seed uint64, trials, depth uint8) bool {
		prob := qap.NewState(qap.Random(15, seed), seed)
		before := prob.Snapshot()
		r := rng.New(seed + 1)
		move := tabu.BuildCompound(prob, r, tabu.CompoundParams{
			Trials: int(trials%8) + 1,
			Depth:  int(depth%5) + 1,
		}, nil)
		move.Undo(prob)
		after := prob.Snapshot()
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompoundMoveSameSwaps(t *testing.T) {
	m := tabu.CompoundMove{Swaps: []tabu.Swap{{A: 1, B: 2}, {A: 3, B: 4}}, Delta: -1}
	for _, tc := range []struct {
		o    tabu.CompoundMove
		want bool
	}{
		{tabu.CompoundMove{Swaps: []tabu.Swap{{A: 1, B: 2}, {A: 3, B: 4}}, Delta: 5}, true},
		{tabu.CompoundMove{Swaps: []tabu.Swap{{A: 3, B: 4}, {A: 1, B: 2}}}, false},
		{tabu.CompoundMove{Swaps: []tabu.Swap{{A: 1, B: 2}}}, false},
		{tabu.CompoundMove{}, false},
	} {
		if got := m.SameSwaps(&tc.o); got != tc.want {
			t.Errorf("SameSwaps(%v) = %v, want %v", tc.o.Swaps, got, tc.want)
		}
	}
	var empty tabu.CompoundMove
	if !empty.SameSwaps(&tabu.CompoundMove{Swaps: []tabu.Swap{}}) {
		t.Error("two empty moves differ")
	}
}
