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

func TestSearchImprovesQAP(t *testing.T) {
	prob := qapProblem(t, 30, 10)
	start := prob.Cost()
	s := tabu.NewSearch(prob, tabu.Params{Tenure: 8, Trials: 10, Depth: 3, Seed: 42})
	s.Run(400)
	if s.BestCost() >= start {
		t.Fatalf("search did not improve: %v -> %v", start, s.BestCost())
	}
	if s.Stats.Accepted == 0 {
		t.Fatal("no moves accepted")
	}
	// Best snapshot must evaluate to the best cost.
	if err := prob.Restore(s.BestSnapshot()); err != nil {
		t.Fatal(err)
	}
	if math.Abs(prob.Cost()-s.BestCost()) > 1e-6 {
		t.Fatalf("best snapshot cost %v != recorded best %v", prob.Cost(), s.BestCost())
	}
}

func TestSearchImprovesPlacement(t *testing.T) {
	prob := placementProblem(t, 120, 11)
	start := prob.Cost()
	s := tabu.NewSearch(prob, tabu.Params{Tenure: 10, Trials: 8, Depth: 3, RefreshEvery: 32, Seed: 7})
	s.Run(300)
	if s.BestCost() >= start {
		t.Fatalf("placement search did not improve: %v -> %v", start, s.BestCost())
	}
}

func TestSearchNearsOptimumOnTinyQAP(t *testing.T) {
	ins := qap.Random(7, 21)
	opt := qap.BruteForceOptimum(ins)
	prob := qap.NewState(ins, 22)
	s := tabu.NewSearch(prob, tabu.Params{Tenure: 5, Trials: 12, Depth: 2, Seed: 3})
	s.Run(600)
	// Within 2% of optimum on a size-7 instance is a generous bound; the
	// engine typically finds the exact optimum.
	if s.BestCost() > opt*1.02+1e-9 {
		t.Fatalf("best %v too far from optimum %v", s.BestCost(), opt)
	}
	if s.BestCost() < opt-1e-6 {
		t.Fatalf("best %v beats brute-force optimum %v: bug in cost bookkeeping", s.BestCost(), opt)
	}
}

func TestSearchDeterministic(t *testing.T) {
	run := func() float64 {
		prob := qapProblem(t, 25, 30)
		s := tabu.NewSearch(prob, tabu.Params{Tenure: 7, Trials: 6, Depth: 3, Seed: 99})
		s.Run(200)
		return s.BestCost()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical seeds diverged: %v vs %v", a, b)
	}
}

func TestSearchTabuRejectionHappens(t *testing.T) {
	// Tiny problem and long tenure force tabu collisions.
	prob := qapProblem(t, 6, 31)
	s := tabu.NewSearch(prob, tabu.Params{Tenure: 50, Trials: 3, Depth: 1, Seed: 5})
	s.Run(300)
	if s.Stats.TabuRejected == 0 {
		t.Fatal("no tabu rejections on a tiny problem with long tenure — memory inert?")
	}
}

func TestSearchAspirationHappens(t *testing.T) {
	// Aspirations are rare; scan seeds until one occurs.
	for seed := uint64(0); seed < 25; seed++ {
		prob := qapProblem(t, 10, seed)
		s := tabu.NewSearch(prob, tabu.Params{Tenure: 30, Trials: 8, Depth: 2, Seed: seed})
		s.Run(400)
		if s.Stats.Aspirations > 0 {
			return
		}
	}
	t.Fatal("no aspiration in 25 seeds — criterion never fires")
}

func TestDiversifyMovesLeastFrequent(t *testing.T) {
	prob := qapProblem(t, 20, 40)
	s := tabu.NewSearch(prob, tabu.Params{Tenure: 5, Trials: 6, Depth: 2, Seed: 8})
	s.Run(100)
	before := prob.Snapshot()
	s.Diversify(5, 0, 10)
	after := prob.Snapshot()
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("diversification did not change the solution")
	}
	// Frequency memory must have been updated.
	if s.Freq.Total() == 0 {
		t.Fatal("frequency memory empty after diversified run")
	}
}

func TestDiversifyEmptyRangeWidens(t *testing.T) {
	prob := qapProblem(t, 10, 41)
	s := tabu.NewSearch(prob, tabu.Params{Tenure: 5, Trials: 4, Depth: 2, Seed: 9})
	before := prob.Snapshot()
	s.Diversify(3, 7, 7) // empty range: should widen to the full space
	after := prob.Snapshot()
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
		}
	}
	if same {
		t.Fatal("diversify with empty range did nothing")
	}
}

func TestAdoptSolution(t *testing.T) {
	prob := qapProblem(t, 15, 50)
	s := tabu.NewSearch(prob, tabu.Params{Tenure: 5, Trials: 6, Depth: 2, Seed: 10})
	s.Run(150)
	best := append([]int32(nil), s.BestSnapshot()...)
	// Scramble the current solution, then adopt the best back.
	prob.ApplySwap(0, 1)
	prob.ApplySwap(2, 3)
	if err := s.AdoptSolution(best); err != nil {
		t.Fatal(err)
	}
	if math.Abs(prob.Cost()-s.BestCost()) > 1e-6 {
		t.Fatalf("adopted cost %v != best %v", prob.Cost(), s.BestCost())
	}
	if err := s.AdoptSolution([]int32{1}); err == nil {
		t.Fatal("bad snapshot accepted")
	}
}

func TestFrequencyLeastMoved(t *testing.T) {
	f := tabu.NewFrequency(10)
	f.BumpSwap(1, 2)
	f.BumpSwap(1, 3)
	r := rng.New(2)
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

func BenchmarkSearchStepQAP64(b *testing.B) {
	prob := qapProblem(b, 64, 1)
	s := tabu.NewSearch(prob, tabu.Params{Tenure: 10, Trials: 8, Depth: 3, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkSearchStepPlacementC532(b *testing.B) {
	prob := placementProblem(b, 395, 1)
	s := tabu.NewSearch(prob, tabu.Params{Tenure: 10, Trials: 8, Depth: 3, RefreshEvery: 64, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
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
