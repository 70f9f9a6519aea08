package jobshop

import (
	"math"
	"slices"
	"testing"

	"pts/internal/rng"
	"pts/internal/schedinst"
	"pts/internal/tabu"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil, nil); err == nil {
		t.Error("empty routing accepted")
	}
	if _, err := New("x", [][]int{{0, 1}}, [][]int{{1}}); err == nil {
		t.Error("ragged durations accepted")
	}
	if _, err := New("x", [][]int{{0, 2}}, [][]int{{1, 1}}); err == nil {
		t.Error("out-of-range machine accepted")
	}
	if _, err := New("x", [][]int{{0, 0}}, [][]int{{1, 1}}); err == nil {
		t.Error("repeated machine accepted")
	}
	if _, err := New("x", [][]int{{0, 1}}, [][]int{{1, -1}}); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := New("x", [][]int{{0, 1}, {1, 0}}, [][]int{{1, 2}, {3, 4}}); err != nil {
		t.Errorf("valid routing rejected: %v", err)
	}
}

// jobSeq projects a token permutation to its decoded job dispatch
// sequence, the MakespanSeq oracle's input.
func jobSeq(s *State) []int32 {
	out := make([]int32, len(s.perm))
	for i, tok := range s.perm {
		out[i] = tok / s.m
	}
	return out
}

// oracleDelta is the makespan change of exchanging positions a and b,
// computed by MakespanSeq on the explicitly swapped job sequence.
func oracleDelta(t *testing.T, s *State, a, b int32) float64 {
	t.Helper()
	seq := jobSeq(s)
	seq[a], seq[b] = seq[b], seq[a]
	mk, err := MakespanSeq(s.ins, seq)
	if err != nil {
		t.Fatal(err)
	}
	return float64(mk - s.Makespan())
}

// forcedPairs returns the swap positions the checkpointed decoder is
// most likely to get wrong on a sequence of size positions: both in one
// block, in adjacent blocks, the two ends, and block boundaries.
func forcedPairs(size int32) []tabu.SwapCand {
	last := size - 1
	pairs := []tabu.SwapCand{
		{A: 0, B: last}, {A: last, B: 0},
		{A: 1, B: ckEvery - 2},              // one block
		{A: ckEvery - 1, B: ckEvery},        // adjacent blocks, across the boundary
		{A: 2, B: ckEvery + 3},              // adjacent blocks
		{A: ckEvery, B: 2*ckEvery + 1},      // a on a boundary
		{A: ckEvery + 2, B: 3 * ckEvery},    // b on a boundary
		{A: 2 * ckEvery, B: 3 * ckEvery},    // both on boundaries
		{A: last - 1, B: last},              // inside the last (short) block
		{A: last / ckEvery * ckEvery, B: 0}, // the last block's boundary
	}
	out := pairs[:0]
	for _, p := range pairs {
		if p.A >= 0 && p.B >= 0 && p.A < size && p.B < size {
			out = append(out, p)
		}
	}
	return out
}

// zeroHeavy is a random instance where half the operations take no
// time, so ready times often coincide even where the dispatch order
// differs — the case that tells a real re-convergence from a false one.
func zeroHeavy(t *testing.T, jobs, machines int, seed uint64) *schedinst.JobShop {
	t.Helper()
	r := rng.New(seed)
	machine := make([][]int, jobs)
	dur := make([][]int, jobs)
	for j := range machine {
		machine[j] = r.Perm(machines)
		dur[j] = make([]int, machines)
		for o := range dur[j] {
			if r.Intn(2) == 0 {
				dur[j][o] = r.Intn(4)
			}
		}
	}
	ins, err := New("zero-heavy", machine, dur)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// TestDecodeMatchesOracle fuzzes the checkpointed, early-stopping
// decoder against MakespanSeq: every DeltaSwap and DeltaSwapBatch
// result against the explicitly swapped sequence, every ApplySwap and
// Restore makespan against the new sequence, and the checkpoints after
// every mutation against a fresh rebuild. The instances are published
// ones, random ones with (6×4) and without (7×5) a whole number of
// checkpoint blocks, and one where half the operations take no time.
// Both decode exits must occur: the stop at re-convergence and the run
// to the end.
func TestDecodeMatchesOracle(t *testing.T) {
	ft10, err := schedinst.JobShopByName("ft10")
	if err != nil {
		t.Fatal(err)
	}
	la01, err := schedinst.JobShopByName("la01")
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range []*schedinst.JobShop{ft10, la01, Random(6, 4, 7), Random(7, 5, 3), zeroHeavy(t, 5, 3, 4)} {
		size := int32(ins.Jobs * ins.Machines)
		t.Run(ins.Name, func(t *testing.T) {
			s := NewState(ins, 5)
			r := rng.New(17)
			cands := make([]tabu.SwapCand, 0, 64)
			out := make([]float64, 64)
			converged, ranToEnd := 0, 0
			for step := 0; step < 300; step++ {
				cands = append(cands[:0], forcedPairs(size)...)
				for len(cands) < cap(cands) {
					cands = append(cands, tabu.SwapCand{A: int32(r.Intn(int(size))), B: int32(r.Intn(int(size)))})
				}
				s.DeltaSwapBatch(cands, out)
				for i, c := range cands {
					want := oracleDelta(t, s, c.A, c.B)
					if got := s.DeltaSwap(c.A, c.B); got != want {
						t.Fatalf("step %d: DeltaSwap(%d,%d) = %v, oracle %v", step, c.A, c.B, got, want)
					}
					if out[i] != want {
						t.Fatalf("step %d: batch (%d,%d) = %v, oracle %v", step, c.A, c.B, out[i], want)
					}
					if c.A == c.B || s.seq[c.A] == s.seq[c.B] {
						continue
					}
					if _, stop := s.trial(c.A, c.B); stop < size {
						converged++
						if stop <= max(c.A, c.B) || stop%ckEvery != 0 {
							t.Fatalf("step %d: (%d,%d) stopped at %d", step, c.A, c.B, stop)
						}
					} else {
						ranToEnd++
					}
				}
				mv := cands[r.Intn(len(cands))]
				s.ApplySwap(mv.A, mv.B)
				if step%50 == 49 {
					perm := make([]int32, size)
					for i, v := range r.Perm(int(size)) {
						perm[i] = int32(v)
					}
					if err := s.Restore(perm); err != nil {
						t.Fatal(err)
					}
				}
				want, err := MakespanSeq(ins, jobSeq(s))
				if err != nil {
					t.Fatal(err)
				}
				if s.Makespan() != want {
					t.Fatalf("step %d: makespan %d, oracle %d", step, s.Makespan(), want)
				}
				fresh, err := NewStateAt(ins, s.perm)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(s.ck, fresh.ck) || !slices.Equal(s.seq, fresh.seq) {
					t.Fatalf("step %d: checkpoints drifted from a fresh rebuild", step)
				}
			}
			if converged == 0 || ranToEnd == 0 {
				t.Fatalf("exits not both covered: %d stopped at re-convergence, %d ran to the end", converged, ranToEnd)
			}
		})
	}
}

// TestSameJobSwapNeutral pins the encoding property the zero-delta
// shortcut relies on: exchanging two tokens of the same job never
// changes the decoded schedule.
func TestSameJobSwapNeutral(t *testing.T) {
	ins := Random(5, 3, 2)
	s := NewState(ins, 4)
	r := rng.New(6)
	size := int(s.Size())
	checked := 0
	for i := 0; i < 5000 && checked < 200; i++ {
		a := int32(r.Intn(size))
		b := int32(r.Intn(size))
		if a == b || s.perm[a]/s.m != s.perm[b]/s.m {
			continue
		}
		checked++
		if d := s.DeltaSwap(a, b); d != 0 {
			t.Fatalf("same-job swap (%d,%d) reports delta %v", a, b, d)
		}
		before := s.Makespan()
		s.ApplySwap(a, b)
		want, err := MakespanSeq(ins, jobSeq(s))
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan() != before || want != before {
			t.Fatalf("same-job swap changed makespan %d -> %d (oracle %d)", before, s.Makespan(), want)
		}
	}
	if checked == 0 {
		t.Fatal("fuzz never found a same-job pair")
	}
}

// TestDeltaSwapBatchMatchesScalar fuzzes the batched recompute kernel
// against per-candidate DeltaSwap bit-for-bit, across many states,
// batch sizes and degenerate candidates.
func TestDeltaSwapBatchMatchesScalar(t *testing.T) {
	ins := Random(6, 5, 6)
	s := NewState(ins, 7)
	r := rng.New(11)
	size := int(s.Size())
	const maxBatch = 48
	cands := make([]tabu.SwapCand, 0, maxBatch)
	out := make([]float64, maxBatch)
	for batch := 0; batch < 600; batch++ {
		n := 1 + r.Intn(maxBatch)
		cands = cands[:0]
		for i := 0; i < n; i++ {
			cands = append(cands, tabu.SwapCand{
				A: int32(r.Intn(size)),
				B: int32(r.Intn(size)), // a == b allowed
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
		s.ApplySwap(int32(r.Intn(size)), int32(r.Intn(size)))
	}
}

func TestApplySwapInvolution(t *testing.T) {
	s := NewState(Random(4, 3, 2), 5)
	before := s.Snapshot()
	costBefore := s.Cost()
	s.ApplySwap(2, 7)
	s.ApplySwap(2, 7)
	after := s.Snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("double swap changed permutation")
		}
	}
	if s.Cost() != costBefore {
		t.Fatalf("double swap changed cost: %v vs %v", s.Cost(), costBefore)
	}
}

func TestRestoreValidation(t *testing.T) {
	s := NewState(Random(2, 2, 4), 2)
	if err := s.Restore([]int32{0, 1}); err == nil {
		t.Error("short snapshot accepted")
	}
	if err := s.Restore([]int32{0, 1, 2, 9}); err == nil {
		t.Error("out-of-range snapshot accepted")
	}
	if err := s.Restore([]int32{0, 1, 1, 2}); err == nil {
		t.Error("duplicate snapshot accepted")
	}
	good := s.Snapshot()
	if err := s.Restore(good); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

// TestBruteForceBounds pins the oracle relationships on tiny random
// instances: lower bound <= optimum <= every random dispatch.
func TestBruteForceBounds(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ins := Random(4, 3, seed)
		opt := BruteForceOptimum(ins)
		if lb := LowerBound(ins); lb > opt {
			t.Fatalf("seed %d: lower bound %d above brute-force optimum %d", seed, lb, opt)
		}
		for trial := uint64(0); trial < 10; trial++ {
			if s := NewState(ins, trial); s.Makespan() < opt {
				t.Fatalf("seed %d: random dispatch %d beats brute-force optimum %d", seed, s.Makespan(), opt)
			}
		}
	}
}

// TestEmbeddedInstanceIntegrity cross-checks the embedded OR-Library
// instances against their published optima: random schedules must never
// beat them, and the load lower bound must not exceed them. la01's
// optimum sits exactly on the machine-load bound, which pins that
// instance's data especially tightly.
func TestEmbeddedInstanceIntegrity(t *testing.T) {
	for _, tc := range []struct{ name string }{{"ft06"}, {"ft10"}, {"la01"}} {
		ins, err := schedinst.JobShopByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if ins.Optimum == 0 {
			t.Fatalf("%s: missing published optimum", tc.name)
		}
		if lb := LowerBound(ins); lb > ins.Optimum {
			t.Fatalf("%s: load bound %d above published optimum %d (instance data drifted?)", tc.name, lb, ins.Optimum)
		}
		for seed := uint64(0); seed < 30; seed++ {
			if s := NewState(ins, seed); s.Makespan() < ins.Optimum {
				t.Fatalf("%s: random dispatch %d beats published optimum %d", tc.name, s.Makespan(), ins.Optimum)
			}
		}
	}
	la01, err := schedinst.JobShopByName("la01")
	if err != nil {
		t.Fatal(err)
	}
	if lb := LowerBound(la01); lb != la01.Optimum {
		t.Fatalf("la01 load bound %d != published optimum %d", lb, la01.Optimum)
	}
}

// TestDeltaSwapBatchAllocFree asserts the batched path, ApplySwap and
// Restore allocate nothing per call — the same 0 allocs/trial contract
// the other workloads' kernels are held to in CI.
func TestDeltaSwapBatchAllocFree(t *testing.T) {
	ins := Random(10, 6, 1)
	s := NewState(ins, 2)
	r := rng.New(3)
	size := int(s.Size())
	cands := make([]tabu.SwapCand, 64)
	out := make([]float64, 64)
	for i := range cands {
		cands[i] = tabu.SwapCand{A: int32(r.Intn(size)), B: int32(r.Intn(size))}
	}
	s.DeltaSwapBatch(cands, out)
	if n := testing.AllocsPerRun(100, func() {
		s.DeltaSwapBatch(cands, out)
	}); n != 0 {
		t.Fatalf("DeltaSwapBatch allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.ApplySwap(cands[0].A, cands[0].B)
	}); n != 0 {
		t.Fatalf("ApplySwap allocates %.1f per call, want 0", n)
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

// BenchmarkDeltaSwapBatch times a 64-candidate batch on a random
// 10×10 instance and on ft10. Pairs are drawn the way a candidate-list
// worker whose range is the whole space draws them (one CLW per TSW):
// the first element from its range, the second from the whole space.
func BenchmarkDeltaSwapBatch(b *testing.B) {
	ft10, err := schedinst.JobShopByName("ft10")
	if err != nil {
		b.Fatal(err)
	}
	for _, ins := range []*schedinst.JobShop{Random(10, 10, 1), ft10} {
		b.Run(ins.Name, func(b *testing.B) {
			s := NewState(ins, 2)
			r := rng.New(3)
			size := int(s.Size())
			cands := make([]tabu.SwapCand, 64)
			for i := range cands {
				cands[i] = tabu.SwapCand{A: int32(r.Intn(size)), B: int32(r.Intn(size))}
			}
			out := make([]float64, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.DeltaSwapBatch(cands, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cands)), "ns/cand")
		})
	}
}
