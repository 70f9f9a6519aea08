package flowshop

import (
	"math"
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
// random swaps and requires cost, delta prediction and the lazily
// rebuilt critical-path caches to agree with the from-scratch DP at
// every step.
func TestIncrementalMatchesOracle(t *testing.T) {
	ins := Random(14, 5, 7)
	s := NewState(ins, 3)
	r := rng.New(9)
	for i := 0; i < 2000; i++ {
		a := int32(r.Intn(ins.Jobs))
		b := int32(r.Intn(ins.Jobs))
		predicted := s.DeltaSwap(a, b)
		before := s.Cost()
		s.ApplySwap(a, b)
		want, err := Makespan(ins, s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan() != want {
			t.Fatalf("step %d: incremental makespan %d != oracle %d", i, s.Makespan(), want)
		}
		if got := s.Cost() - before; got != predicted {
			t.Fatalf("step %d: delta %v != predicted %v", i, got, predicted)
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
