package flowshop

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pts/internal/rng"
	"pts/internal/schedinst"
	"pts/internal/tabu"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := New("x", [][]int{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := New("x", [][]int{{1, -2}}); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := New("x", [][]int{{1, 2}, {3, 4}}); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, b := Random(7, 4, 42), Random(7, 4, 42)
	for i := range a.Proc {
		for j := range a.Proc[i] {
			if a.Proc[i][j] != b.Proc[i][j] {
				t.Fatal("instances differ for equal seed")
			}
		}
	}
	c := Random(7, 4, 43)
	same := true
	for i := range a.Proc {
		for j := range a.Proc[i] {
			if a.Proc[i][j] != c.Proc[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical instances")
	}
}

// TestIncrementalMatchesOracle drives the state through thousands of
// random swaps, committed 1–4 at a time and some undone again in
// reverse, and requires cost and delta prediction to agree with the
// from-scratch DP at every step — and, after each evaluation rebuilt
// the tails from the watermark the chained swaps raised, both
// critical-path matrices to equal those of a fresh state on the same
// sequence.
func TestIncrementalMatchesOracle(t *testing.T) {
	ins := Random(14, 5, 7)
	s := NewState(ins, 3)
	r := rng.New(9)
	var swaps [][2]int32
	check := func(step int) {
		t.Helper()
		s.ensure()
		want, err := Makespan(ins, s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan() != want {
			t.Fatalf("step %d: incremental makespan %d != oracle %d", step, s.Makespan(), want)
		}
		fresh, err := NewStateAt(ins, s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s.head, fresh.head) || !slices.Equal(s.tail, fresh.tail) {
			t.Fatalf("step %d: critical-path matrices differ from a fresh state's", step)
		}
	}
	for i := 0; i < 2000; i++ {
		a := int32(r.Intn(ins.Jobs))
		b := int32(r.Intn(ins.Jobs))
		predicted := s.DeltaSwap(a, b)
		before := s.Cost()
		s.ApplySwap(a, b)
		if got := s.Cost() - before; got != predicted {
			t.Fatalf("step %d: delta %v != predicted %v", i, got, predicted)
		}
		swaps = append(swaps[:0], [2]int32{a, b})
		for k := r.Intn(4); k > 0; k-- {
			a, b := int32(r.Intn(ins.Jobs)), int32(r.Intn(ins.Jobs))
			s.ApplySwap(a, b)
			swaps = append(swaps, [2]int32{a, b})
		}
		check(i)
		if r.Intn(2) == 0 {
			for k := len(swaps) - 1; k >= 0; k-- {
				s.ApplySwap(swaps[k][0], swaps[k][1])
			}
			if s.Cost() != before {
				t.Fatalf("step %d: undo left makespan %v, want %v", i, s.Cost(), before)
			}
			check(i)
		}
	}
}

// TestDeltaSwapBatchMatchesScalar fuzzes the batched head/tail kernel
// against per-candidate DeltaSwap bit-for-bit, across many states,
// batch sizes and degenerate a==b candidates.
func TestDeltaSwapBatchMatchesScalar(t *testing.T) {
	ins := Random(30, 6, 6)
	s := NewState(ins, 7)
	r := rng.New(11)
	const maxBatch = 48
	cands := make([]tabu.SwapCand, 0, maxBatch)
	out := make([]float64, maxBatch)
	for batch := 0; batch < 600; batch++ {
		n := 1 + r.Intn(maxBatch)
		cands = cands[:0]
		for i := 0; i < n; i++ {
			cands = append(cands, tabu.SwapCand{
				A: int32(r.Intn(ins.Jobs)),
				B: int32(r.Intn(ins.Jobs)), // a == b allowed
			})
		}
		s.DeltaSwapBatch(cands, out[:n])
		for i, c := range cands {
			want := s.DeltaSwap(c.A, c.B)
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("batch %d cand %d (%d,%d): batch %v, scalar %v",
					batch, i, c.A, c.B, out[i], want)
			}
		}
		s.ApplySwap(int32(r.Intn(ins.Jobs)), int32(r.Intn(ins.Jobs)))
	}
}

func TestApplySwapInvolution(t *testing.T) {
	s := NewState(Random(10, 4, 2), 5)
	before := s.Snapshot()
	costBefore := s.Cost()
	s.ApplySwap(2, 7)
	s.ApplySwap(2, 7)
	after := s.Snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("double swap changed sequence")
		}
	}
	if s.Cost() != costBefore {
		t.Fatalf("double swap changed cost: %v vs %v", s.Cost(), costBefore)
	}
}

func TestSelfSwapNoop(t *testing.T) {
	s := NewState(Random(6, 3, 3), 1)
	if s.DeltaSwap(4, 4) != 0 {
		t.Error("self delta nonzero")
	}
	before := s.Cost()
	s.ApplySwap(4, 4)
	if s.Cost() != before {
		t.Error("self swap changed cost")
	}
}

func TestRestoreValidation(t *testing.T) {
	s := NewState(Random(5, 2, 4), 2)
	if err := s.Restore([]int32{0, 1}); err == nil {
		t.Error("short snapshot accepted")
	}
	if err := s.Restore([]int32{0, 1, 2, 3, 9}); err == nil {
		t.Error("out-of-range snapshot accepted")
	}
	if err := s.Restore([]int32{0, 1, 2, 2, 3}); err == nil {
		t.Error("duplicate snapshot accepted")
	}
	good := s.Snapshot()
	if err := s.Restore(good); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

// TestBruteForceBounds pins the oracle relationships on tiny random
// instances: lower bound <= optimum <= every random sequence.
func TestBruteForceBounds(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ins := Random(6, 3, seed)
		opt := BruteForceOptimum(ins)
		if lb := LowerBound(ins); lb > opt {
			t.Fatalf("seed %d: lower bound %d above brute-force optimum %d", seed, lb, opt)
		}
		for trial := uint64(0); trial < 10; trial++ {
			if s := NewState(ins, trial); s.Makespan() < opt {
				t.Fatalf("seed %d: random sequence %d beats brute-force optimum %d", seed, s.Makespan(), opt)
			}
		}
	}
}

// TestTa001DataIntegrity cross-checks the embedded Taillard instance
// against its published bounds: the machine-based lower bound computed
// from the processing times must reproduce the published 1232 exactly,
// and random schedules must never beat the proven optimum 1278 — both
// would fail if the embedded matrix drifted from Taillard's.
func TestTa001DataIntegrity(t *testing.T) {
	ins, err := schedinst.FlowShopByName("ta001")
	if err != nil {
		t.Fatal(err)
	}
	if ins.Jobs != 20 || ins.Machines != 5 {
		t.Fatalf("ta001 is %dx%d, want 20x5", ins.Jobs, ins.Machines)
	}
	if ins.Upper != 1278 || ins.Lower != 1232 {
		t.Fatalf("ta001 header bounds %d/%d, want 1278/1232", ins.Upper, ins.Lower)
	}
	if lb := LowerBound(ins); lb != 1232 {
		t.Fatalf("computed lower bound %d != published 1232 (instance data drifted?)", lb)
	}
	for seed := uint64(0); seed < 50; seed++ {
		if s := NewState(ins, seed); s.Makespan() < ins.Upper {
			t.Fatalf("random sequence %d beats the proven optimum %d", s.Makespan(), ins.Upper)
		}
	}
}

// TestDeltaSwapBatchAllocFree asserts the batched path, ApplySwap and
// Restore allocate nothing per call once the state is warm — the same
// 0 allocs/trial contract the placement and cost kernels are held to
// in CI.
func TestDeltaSwapBatchAllocFree(t *testing.T) {
	ins := Random(40, 8, 1)
	s := NewState(ins, 2)
	r := rng.New(3)
	cands := make([]tabu.SwapCand, 64)
	out := make([]float64, 64)
	refill := func() {
		for i := range cands {
			cands[i] = tabu.SwapCand{A: int32(r.Intn(ins.Jobs)), B: int32(r.Intn(ins.Jobs))}
		}
	}
	refill()
	s.DeltaSwapBatch(cands, out) // warm the caches
	if n := testing.AllocsPerRun(100, func() {
		s.DeltaSwapBatch(cands, out)
	}); n != 0 {
		t.Fatalf("DeltaSwapBatch allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.ApplySwap(cands[0].A, cands[0].B)
		_ = s.DeltaSwap(cands[1].A, cands[1].B) // forces the lazy rebuild
	}); n != 0 {
		t.Fatalf("ApplySwap+DeltaSwap allocates %.1f per call, want 0", n)
	}
	snap := s.Snapshot()
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Restore(snap); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Restore allocates %.1f per call, want 0", n)
	}
}

// BenchmarkCompoundCycle is one CLW step on a ta001-sized state: build
// a depth-4 compound move from 12-candidate batches, undo it, then
// commit it again — the commit traffic the head/tail watermark serves.
func BenchmarkCompoundCycle(b *testing.B) {
	s := NewState(Random(20, 5, 1), 2)
	r := rand.New(rand.NewSource(3))
	p := tabu.CompoundParams{Trials: 12, Depth: 4}
	var sc tabu.BatchScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := tabu.BuildCompoundBatch(s, r, p, &sc, nil)
		m.Undo(s)
		m.Apply(s)
	}
}

func BenchmarkDeltaSwapBatch(b *testing.B) {
	ins := Random(100, 10, 1)
	s := NewState(ins, 2)
	r := rng.New(3)
	cands := make([]tabu.SwapCand, 64)
	for i := range cands {
		cands[i] = tabu.SwapCand{A: int32(r.Intn(ins.Jobs)), B: int32(r.Intn(ins.Jobs))}
	}
	out := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DeltaSwapBatch(cands, out)
	}
}

func BenchmarkDeltaSwapScalar(b *testing.B) {
	ins := Random(100, 10, 1)
	s := NewState(ins, 2)
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.DeltaSwap(int32(r.Intn(ins.Jobs)), int32(r.Intn(ins.Jobs)))
	}
}
