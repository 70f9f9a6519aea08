// Package flowshop implements the permutation flow shop scheduling
// problem (makespan objective) as a third domain for the tabu engine —
// the first whose delta evaluation is not O(1)-ish.
//
// A solution is one job sequence processed in the same order by every
// machine; the cost is the makespan of the induced schedule. The state
// keeps Taillard-style head and tail critical-path matrices: completion
// times of every operation under the current sequence (heads) and the
// longest path from every operation to the end of the schedule (tails).
// A candidate swap of positions a < b then needs the DP recomputed only
// over columns a..b — the unchanged suffix folds in through the tails,
// since every critical path crosses the column boundary b|b+1 on
// exactly one machine:
//
//	makespan' = max_i ( C'[i][b] + tail[i][b+1] )
//
// A committed swap of positions lo < hi changes heads only from column
// lo on and tails only up to column hi. ApplySwap therefore rebuilds
// head columns lo..n-1 at once, which also yields the new makespan,
// and raises a watermark over the tail columns it invalidated; the next
// evaluation rebuilds tails from the watermark down to column 0. A
// compound move, its undo and the batch that follows thus pay only for
// the columns they changed.
//
// All schedule arithmetic is integral (int32, guarded by the instance
// parser), so every delta and makespan is exact and the batched path is
// bit-identical to the scalar path by construction, with no
// floating-point accumulation-order discipline needed.
package flowshop

import (
	"fmt"

	"pts/internal/rng"
	"pts/internal/schedinst"
	"pts/internal/tabu"
)

// New validates a processing-time matrix (machine-major: proc[i][j] is
// job j's time on machine i) and wraps it as an instance.
func New(name string, proc [][]int) (*schedinst.FlowShop, error) {
	if len(proc) == 0 || len(proc[0]) == 0 {
		return nil, fmt.Errorf("flowshop: empty processing-time matrix")
	}
	ins := &schedinst.FlowShop{
		Name:     name,
		Jobs:     len(proc[0]),
		Machines: len(proc),
		Proc:     proc,
	}
	total := int64(0)
	for i, row := range proc {
		if len(row) != ins.Jobs {
			return nil, fmt.Errorf("flowshop: machine %d has %d entries, want %d", i, len(row), ins.Jobs)
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("flowshop: negative processing time %d (job %d, machine %d)", v, j, i)
			}
			total += int64(v)
		}
	}
	if total > 1<<31-1 {
		return nil, fmt.Errorf("flowshop: total processing time %d overflows the schedule arithmetic", total)
	}
	return ins, nil
}

// Random generates a random instance with durations in [1, 100),
// deterministic in seed — the Taillard generation recipe, handy for
// fuzzing and brute-force oracles.
func Random(jobs, machines int, seed uint64) *schedinst.FlowShop {
	r := rng.New(rng.Derive(seed, "flowshop"))
	proc := make([][]int, machines)
	for i := range proc {
		row := make([]int, jobs)
		for j := range row {
			row[j] = 1 + r.Intn(99)
		}
		proc[i] = row
	}
	ins, err := New(fmt.Sprintf("fs%dx%d", jobs, machines), proc)
	if err != nil {
		panic(err) // unreachable: the generator respects the invariants
	}
	return ins
}

// Makespan evaluates a job sequence from scratch with the standard
// completion-time DP — the independent exact oracle the incremental
// state is tested against.
func Makespan(ins *schedinst.FlowShop, seq []int32) (int, error) {
	if err := checkPerm(seq, make([]bool, ins.Jobs)); err != nil {
		return 0, err
	}
	c := make([]int, ins.Machines)
	for _, job := range seq {
		prev := 0
		for i := 0; i < ins.Machines; i++ {
			if prev > c[i] {
				c[i] = prev
			}
			c[i] += ins.Proc[i][job]
			prev = c[i]
		}
	}
	return c[ins.Machines-1], nil
}

// LowerBound is the classic machine-based makespan lower bound: for
// each machine, its total load plus the smallest possible head and tail
// around it; and no schedule beats the longest single job either.
func LowerBound(ins *schedinst.FlowShop) int {
	lb := 0
	for i := 0; i < ins.Machines; i++ {
		load, minHead, minTail := 0, -1, -1
		for j := 0; j < ins.Jobs; j++ {
			load += ins.Proc[i][j]
			head, tail := 0, 0
			for k := 0; k < i; k++ {
				head += ins.Proc[k][j]
			}
			for k := i + 1; k < ins.Machines; k++ {
				tail += ins.Proc[k][j]
			}
			if minHead < 0 || head < minHead {
				minHead = head
			}
			if minTail < 0 || tail < minTail {
				minTail = tail
			}
		}
		if v := load + minHead + minTail; v > lb {
			lb = v
		}
	}
	for j := 0; j < ins.Jobs; j++ {
		total := 0
		for i := 0; i < ins.Machines; i++ {
			total += ins.Proc[i][j]
		}
		if total > lb {
			lb = total
		}
	}
	return lb
}

// BruteForceOptimum exhaustively finds the optimal makespan; limited to
// tiny instances (n <= 8), the test oracle.
func BruteForceOptimum(ins *schedinst.FlowShop) int {
	if ins.Jobs > 8 {
		panic("flowshop: brute force limited to 8 jobs")
	}
	seq := make([]int32, ins.Jobs)
	for i := range seq {
		seq[i] = int32(i)
	}
	best, _ := Makespan(ins, seq)
	var rec func(k int)
	rec = func(k int) {
		if k == len(seq) {
			if mk, _ := Makespan(ins, seq); mk < best {
				best = mk
			}
			return
		}
		for i := k; i < len(seq); i++ {
			seq[k], seq[i] = seq[i], seq[k]
			rec(k + 1)
			seq[k], seq[i] = seq[i], seq[k]
		}
	}
	rec(0)
	return best
}

// State is a mutable job sequence implementing the tabu engine's
// Problem interface plus the batched evaluation boundary. Element
// indices are sequence positions; ApplySwap(a, b) exchanges the jobs at
// positions a and b.
type State struct {
	ins  *schedinst.FlowShop
	n, m int32
	// proc is the machine-major flat copy of the processing times:
	// proc[i*n+j] is job j's time on machine i.
	proc []int32
	// seq[pos] is the job at sequence position pos.
	seq      []int32
	makespan int32
	// head[i*n+p]: completion time of the op at (machine i, position p)
	// under seq, always current. tail[i*(n+1)+p]: longest path from the
	// start of that op to the schedule's end; the extra column p = n is
	// zero so the boundary fold needs no edge case. Tail columns
	// 0..tailDirty are stale (tailDirty = -1: none); ensure rebuilds
	// them before an evaluation reads them.
	head, tail []int32
	tailDirty  int32
	// col is the m-length DP column scratch of the section recompute,
	// seen Restore's permutation check: scratch reused so a barrier
	// resync stays allocation-free.
	col  []int32
	seen []bool
}

// NewState creates a state with a random sequence drawn from seed.
func NewState(ins *schedinst.FlowShop, seed uint64) *State {
	s := newState(ins)
	r := rng.New(rng.Derive(seed, "flowshop.state"))
	for i, v := range r.Perm(ins.Jobs) {
		s.seq[i] = int32(v)
	}
	s.recompute()
	return s
}

// NewStateAt creates a state positioned at the sequence snap,
// validating it is a permutation of the instance's size.
func NewStateAt(ins *schedinst.FlowShop, snap []int32) (*State, error) {
	s := newState(ins)
	if err := s.Restore(snap); err != nil {
		return nil, err
	}
	return s, nil
}

func newState(ins *schedinst.FlowShop) *State {
	n, m := int32(ins.Jobs), int32(ins.Machines)
	s := &State{
		ins: ins, n: n, m: m,
		proc: make([]int32, int(n)*int(m)),
		seq:  make([]int32, n),
		head: make([]int32, int(n)*int(m)),
		tail: make([]int32, int(n+1)*int(m)),
		col:  make([]int32, m),
		seen: make([]bool, n),
	}
	for i := 0; i < ins.Machines; i++ {
		for j := 0; j < ins.Jobs; j++ {
			s.proc[i*int(n)+j] = int32(ins.Proc[i][j])
		}
	}
	return s
}

// Instance returns the underlying instance.
func (s *State) Instance() *schedinst.FlowShop { return s.ins }

// Cost returns the current makespan. Integral by construction, so the
// float64 view is exact.
func (s *State) Cost() float64 { return float64(s.makespan) }

// Makespan returns the current makespan as the integer it is.
func (s *State) Makespan() int { return int(s.makespan) }

// Size returns the number of sequence positions.
func (s *State) Size() int32 { return s.n }

// recompute rebuilds the makespan and both critical-path matrices from
// the sequence, in O(nm).
func (s *State) recompute() {
	s.rebuildHeads(0)
	s.tailDirty = s.n - 1
	s.ensure()
}

// rebuildHeads recomputes head columns from..n-1 from column from-1,
// which must be current, and takes the makespan from the last column:
// C[i][p] = max(C[i-1][p], C[i][p-1]) + proc[i][seq[p]].
func (s *State) rebuildHeads(from int32) {
	n, m := s.n, s.m
	seq := s.seq[from:n]
	var up []int32
	for i := int32(0); i < m; i++ {
		row := s.head[i*n : (i+1)*n]
		proc := s.proc[i*n : (i+1)*n]
		left := int32(0)
		if from > 0 {
			left = row[from-1]
		}
		row = row[from:]
		if up == nil {
			for k, job := range seq {
				left += proc[job]
				row[k] = left
			}
		} else {
			up = up[from:]
			for k, job := range seq {
				left = max(left, up[k]) + proc[job]
				row[k] = left
			}
		}
		up = s.head[i*n : (i+1)*n]
	}
	s.makespan = s.head[(m-1)*n+n-1]
}

// ensure rebuilds the stale tail columns tailDirty..0 from column
// tailDirty+1, which no swap since the last rebuild has touched:
// Q[i][p] = max(Q[i+1][p], Q[i][p+1]) + proc[i][seq[p]], with the
// p = n column fixed at zero.
func (s *State) ensure() {
	to := s.tailDirty
	if to < 0 {
		return
	}
	n, m, w := s.n, s.m, s.n+1
	seq := s.seq[:to+1]
	var down []int32
	for i := m - 1; i >= 0; i-- {
		row := s.tail[i*w : (i+1)*w]
		proc := s.proc[i*n : (i+1)*n]
		right := row[to+1]
		if down == nil {
			for p := to; p >= 0; p-- {
				right += proc[seq[p]]
				row[p] = right
			}
		} else {
			for p := to; p >= 0; p-- {
				right = max(right, down[p]) + proc[seq[p]]
				row[p] = right
			}
		}
		down = row
	}
	s.tailDirty = -1
}

// makespanSwapped evaluates the makespan of the sequence with positions
// a < b exchanged: DP over columns a..b seeded from the head column
// a-1, folded into the unchanged suffix through the tail column b+1.
// O(m * (b - a + 1)); requires current tails (ensure).
func (s *State) makespanSwapped(lo, hi int32) int32 {
	n, m, w := s.n, s.m, s.n+1
	col := s.col
	for i := int32(0); i < m; i++ {
		if lo > 0 {
			col[i] = s.head[i*n+lo-1]
		} else {
			col[i] = 0
		}
	}
	for p := lo; p <= hi; p++ {
		job := s.seq[p]
		switch p {
		case lo:
			job = s.seq[hi]
		case hi:
			job = s.seq[lo]
		}
		prev := int32(0)
		for i := int32(0); i < m; i++ {
			c := col[i]
			if prev > c {
				c = prev
			}
			c += s.proc[i*n+job]
			col[i] = c
			prev = c
		}
	}
	mk := int32(0)
	for i := int32(0); i < m; i++ {
		if v := col[i] + s.tail[i*w+hi+1]; v > mk {
			mk = v
		}
	}
	return mk
}

// DeltaSwap returns the exact makespan change of exchanging the jobs at
// positions a and b without applying it.
func (s *State) DeltaSwap(a, b int32) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	s.ensure()
	return float64(s.makespanSwapped(a, b) - s.makespan)
}

// DeltaSwapBatch evaluates a whole candidate batch in one call; out[i]
// is bit-for-bit what DeltaSwap(cands[i].A, cands[i].B) would return.
// Implements tabu.BatchEvaluator: the stale tail columns are rebuilt
// once for the batch, then each candidate costs only its own
// O(m * span) section recompute — the incremental structure that makes
// a non-O(1)-delta workload viable in the batched hot loop.
func (s *State) DeltaSwapBatch(cands []tabu.SwapCand, out []float64) {
	s.ensure()
	for i, c := range cands {
		a, b := c.A, c.B
		if a == b {
			out[i] = 0
			continue
		}
		if a > b {
			a, b = b, a
		}
		out[i] = float64(s.makespanSwapped(a, b) - s.makespan)
	}
}

// ApplySwap exchanges the jobs at positions a and b and rebuilds the
// head columns from the lower position on, which yields the exact new
// makespan in O(m * (n - lo)); the tail columns up to the higher
// position are left for the next evaluation to rebuild.
func (s *State) ApplySwap(a, b int32) {
	if a == b {
		return
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	s.seq[a], s.seq[b] = s.seq[b], s.seq[a]
	s.rebuildHeads(lo)
	s.tailDirty = max(s.tailDirty, hi)
}

// Snapshot copies the current sequence.
func (s *State) Snapshot() []int32 { return append([]int32(nil), s.seq...) }

// SnapshotInto copies the current sequence into dst, reusing its
// storage when large enough; the allocation-free variant the parallel
// engine prefers.
func (s *State) SnapshotInto(dst []int32) []int32 {
	if cap(dst) < len(s.seq) {
		dst = make([]int32, len(s.seq))
	}
	dst = dst[:len(s.seq)]
	copy(dst, s.seq)
	return dst
}

// Restore replaces the sequence with a snapshot and recomputes the
// makespan exactly.
func (s *State) Restore(snap []int32) error {
	if err := checkPerm(snap, s.seen); err != nil {
		return err
	}
	copy(s.seq, snap)
	s.recompute()
	return nil
}

// checkPerm validates that snap is a permutation of [0, n), where n =
// len(seen); seen is scratch it clears first.
func checkPerm(snap []int32, seen []bool) error {
	n := len(seen)
	if len(snap) != n {
		return fmt.Errorf("flowshop: snapshot length %d != %d", len(snap), n)
	}
	clear(seen)
	for _, v := range snap {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("flowshop: snapshot is not a permutation")
		}
		seen[v] = true
	}
	return nil
}
