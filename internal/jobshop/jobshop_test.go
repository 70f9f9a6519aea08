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

// tailOracle is the tail of frontier variable k (job k < n, else
// machine k-n) at checkpoint c, found without the backward pass: raise
// that ready time in head row c above every path and decode the rest
// forward. The latest final ready time of any job or machine then
// exceeds the raised time by exactly the tail.
func tailOracle(s *State, c, k int32) int32 {
	n, m := s.n, s.m
	w := 2*n + m
	total := int32(0)
	for _, d := range s.dur {
		total += d
	}
	raised := total + 1
	row := slices.Clone(s.ck[c*w : (c+1)*w])
	row[n+k] = raised
	jobNext, jobReady, machReady := row[:n], row[n:2*n], row[2*n:]
	for _, j := range s.seq[c*ckEvery:] {
		o := jobNext[j]
		jobNext[j]++
		mc := s.ins.Machine[j][o]
		t := max(jobReady[j], machReady[mc]) + int32(s.ins.Dur[j][o])
		jobReady[j], machReady[mc] = t, t
	}
	return max(slices.Max(jobReady), slices.Max(machReady)) - raised
}

// checkTails compares every tail row a trial can read — each checkpoint
// row and the end row — with fresh's, a rebuild of s, and fresh's rows
// with tailOracle. It returns how many checkpoint rows held a machine
// with no operation left, whose tail must be 0.
func checkTails(t *testing.T, s, fresh *State, step int) (idle int) {
	t.Helper()
	s.ensure()
	if !slices.Equal(s.tl, fresh.tl) {
		t.Fatalf("step %d: tails drifted from a fresh backward pass", step)
	}
	n, m := s.n, s.m
	w, tw := 2*n+m, n+m
	blocks := int32(len(s.ck)) / w
	for c := int32(0); c < blocks; c++ {
		for k := int32(0); k < tw; k++ {
			if got, want := fresh.tl[c*tw+k], tailOracle(fresh, c, k); got != want {
				t.Fatalf("step %d: tail row %d var %d = %d, oracle %d", step, c, k, got, want)
			}
		}
		busy := make([]bool, m)
		for j, next := range fresh.ck[c*w : c*w+n] {
			for _, mc := range s.ins.Machine[j][next:] {
				busy[mc] = true
			}
		}
		if i := slices.Index(busy, false); i >= 0 {
			idle++
			if tl := fresh.tl[c*tw+n+int32(i)]; tl != 0 {
				t.Fatalf("step %d: idle machine %d has tail %d in row %d", step, i, tl, c)
			}
		}
	}
	return idle
}

// TestDecodeMatchesOracle fuzzes the windowed trial and the
// re-converging commit decode against MakespanSeq: every DeltaSwap and
// DeltaSwapBatch result against the explicitly swapped sequence, every
// ApplySwap and Restore makespan against the new sequence, and the
// heads and tails after every mutation against a fresh rebuild (the
// tails also against tailOracle). The instances are published ones,
// random ones with (6×4) and without (7×5) a whole number of checkpoint
// blocks, and one where half the operations take no time. Every exit
// must occur: a trial closing with the tails at the first checkpoint
// past max(a, b), a trial in the last block running to the end, and a
// commit decode stopping at re-convergence as well as running to the
// end. ft10 and la01 end in a short block, so some machine has no
// operation left there and its tail is 0.
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
			closed, ranToEnd, converged, committedToEnd, idle := 0, 0, 0, 0, 0
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
					_, stop := s.trial(c.A, c.B)
					next := (max(c.A, c.B)/ckEvery + 1) * ckEvery
					switch {
					case next < size && stop == next:
						closed++
					case next >= size && stop == size:
						ranToEnd++
					default:
						t.Fatalf("step %d: trial (%d,%d) stopped at %d", step, c.A, c.B, stop)
					}
				}
				mv := cands[r.Intn(len(cands))]
				if stop := s.apply(mv.A, mv.B); stop >= 0 && stop < size {
					converged++
					if stop <= max(mv.A, mv.B) || stop%ckEvery != 0 {
						t.Fatalf("step %d: commit (%d,%d) stopped at %d", step, mv.A, mv.B, stop)
					}
				} else if stop == size {
					committedToEnd++
				}
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
					t.Fatalf("step %d: heads drifted from a fresh rebuild", step)
				}
				idle += checkTails(t, s, fresh, step)
			}
			if closed == 0 || ranToEnd == 0 || converged == 0 || committedToEnd == 0 {
				t.Fatalf("exits not all covered: trials %d closed with the tails, %d ran to the end; commits %d re-converged, %d ran to the end",
					closed, ranToEnd, converged, committedToEnd)
			}
			if (ins == ft10 || ins == la01) && idle == 0 {
				t.Fatal("no checkpoint row with an idle machine")
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

// TestDeltaSwapBatchAllocFree asserts the batched path (including the
// tail rebuild a commit leaves it), ApplySwap and Restore allocate
// nothing per call — the same 0 allocs/trial contract the other
// workloads' kernels are held to in CI.
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
		s.ApplySwap(cands[1].A, cands[1].B)
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

// searchState descends a random ft10 state by greedy swaps — each step
// commits the best of 64 random pairs while that improves — to the
// kind of state a search spends its trials in, where most swaps worsen
// the makespan and their effect runs to the end of the sequence.
func searchState(ins *schedinst.JobShop) *State {
	s := NewState(ins, 2)
	r := rng.New(5)
	size := int(s.Size())
	cands := make([]tabu.SwapCand, 64)
	out := make([]float64, 64)
	for stale := 0; stale < 20; {
		for i := range cands {
			cands[i] = tabu.SwapCand{A: int32(r.Intn(size)), B: int32(r.Intn(size))}
		}
		s.DeltaSwapBatch(cands, out)
		best := slices.Index(out, slices.Min(out))
		if out[best] >= 0 {
			stale++
			continue
		}
		stale = 0
		s.ApplySwap(cands[best].A, cands[best].B)
	}
	return s
}

// BenchmarkDeltaSwapBatch times a 64-candidate batch on a random
// 10×10 instance and on ft10. Pairs are drawn the way a candidate-list
// worker whose range is the whole space draws them (one CLW per TSW):
// the first element from its range, the second from the whole space.
// The ft10-search case runs the search regime: on a greedily descended
// ft10 state, every batch is followed by committing its best pair, as a
// compound-move step does, and the next batch by undoing it, so the
// figure includes the commit and the tail rebuild it leaves behind.
func BenchmarkDeltaSwapBatch(b *testing.B) {
	ft10, err := schedinst.JobShopByName("ft10")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		state  func() *State
		commit bool
	}{
		{"js10x10", func() *State { return NewState(Random(10, 10, 1), 2) }, false},
		{"ft10", func() *State { return NewState(ft10, 2) }, false},
		{"ft10-search", func() *State { return searchState(ft10) }, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := tc.state()
			r := rng.New(3)
			size := int(s.Size())
			cands := make([]tabu.SwapCand, 64)
			for i := range cands {
				cands[i] = tabu.SwapCand{A: int32(r.Intn(size)), B: int32(r.Intn(size))}
			}
			out := make([]float64, 64)
			var best tabu.SwapCand
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.DeltaSwapBatch(cands, out)
				if tc.commit {
					if i%2 == 0 {
						best = cands[slices.Index(out, slices.Min(out))]
					}
					s.ApplySwap(best.A, best.B)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cands)), "ns/cand")
		})
	}
}

// fuzzBytes hands out fuzz input one byte at a time, zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// perm draws a permutation of [0, n) from the bytes by Fisher-Yates.
func (b *fuzzBytes) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := b.next() % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FuzzJobShopDelta builds a small instance (up to 6 jobs × 5 machines,
// durations 0..7), a token permutation and a run of swap pairs from the
// fuzz bytes. For every pair the scalar delta, the batch delta and the
// MakespanSeq oracle agree, and the tails they read equal a fresh
// rebuild's; the pair is then applied, and the makespan and heads must
// equal a fresh rebuild's too.
func FuzzJobShopDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 4, 1, 2, 3, 4, 5, 6, 7, 0, 0, 9, 31, 7, 200, 3, 17, 4})
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 1})
	r := rng.New(9)
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(r.Intn(256))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		jobs, machines := 1+b.next()%6, 1+b.next()%5
		machine := make([][]int, jobs)
		dur := make([][]int, jobs)
		for j := range machine {
			machine[j] = b.perm(machines)
			dur[j] = make([]int, machines)
			for o := range dur[j] {
				dur[j][o] = b.next() % 8
			}
		}
		ins, err := New("fuzz", machine, dur)
		if err != nil {
			t.Fatal(err)
		}
		size := jobs * machines
		snap := make([]int32, size)
		for i, v := range b.perm(size) {
			snap[i] = int32(v)
		}
		s, err := NewStateAt(ins, snap)
		if err != nil {
			t.Fatal(err)
		}
		var cands []tabu.SwapCand
		for len(b) > 0 {
			cands = append(cands, tabu.SwapCand{A: int32(b.next() % size), B: int32(b.next() % size)})
		}
		out := make([]float64, len(cands))
		for i, c := range cands {
			want := oracleDelta(t, s, c.A, c.B)
			// Either path may be the first to read the tails the last
			// commit left stale.
			var got float64
			if i%2 == 0 {
				got = s.DeltaSwap(c.A, c.B)
				s.DeltaSwapBatch(cands[i:], out[i:])
			} else {
				s.DeltaSwapBatch(cands[i:], out[i:])
				got = s.DeltaSwap(c.A, c.B)
			}
			if got != want || out[i] != want {
				t.Fatalf("swap %d (%d,%d): scalar %v, batch %v, oracle %v", i, c.A, c.B, got, out[i], want)
			}
			fresh, err := NewStateAt(ins, s.perm)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(s.tl, fresh.tl) {
				t.Fatalf("swap %d (%d,%d): tails drifted from a rebuild", i, c.A, c.B)
			}
			s.ApplySwap(c.A, c.B)
			mk, err := MakespanSeq(ins, jobSeq(s))
			if err != nil {
				t.Fatal(err)
			}
			if fresh, err = NewStateAt(ins, s.perm); err != nil {
				t.Fatal(err)
			}
			if s.Makespan() != mk || !slices.Equal(s.ck, fresh.ck) {
				t.Fatalf("swap %d (%d,%d): makespan %d (oracle %d) or heads drifted from a rebuild", i, c.A, c.B, s.Makespan(), mk)
			}
		}
	})
}
