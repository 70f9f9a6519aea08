// Package jobshop implements the job shop scheduling problem (makespan
// objective) as a fourth domain for the tabu engine, over the
// operation-based permutation encoding.
//
// The encoding is Bierwirth's permutation with repetition, expressed
// over distinct tokens so it fits the engine's permutation contract: a
// solution is a permutation of the n*m operation tokens, token t
// denoting the next unscheduled operation of job t/m. Decoding
// dispatches tokens left to right, starting each operation as soon as
// its job predecessor and its machine are free — a semi-active schedule
// builder, under which every active (hence every optimal) schedule is
// reachable. Two tokens of the same job are interchangeable, so
// swapping them is exactly cost-neutral.
//
// A swap can change every later start time, but the decode past the
// swapped positions need not run: one dispatch step, t =
// max(jobReady[j], machReady[mc]) + dur, is max-plus linear, so decoding
// an unchanged suffix is a max-plus linear map of the fold state where
// it starts, and the makespan is max_k(ready_k + tail_k). Every few
// positions the state keeps the heads, the decode's fold state there
// (each job's operation counter and ready time, each machine's ready
// time), and the tails, each ready time's longest path to the makespan.
// A swap at positions a < b decodes from the head at or below a to the
// first checkpoint past b and closes with that checkpoint's tails:
// O(b - a + jobs + machines). ApplySwap rewrites the heads until the
// ready times match the stored ones again and leaves the tails up to b
// stale; the next evaluation rebuilds them in one backward pass, as the
// flow shop does. All schedule arithmetic is integral (int32, guarded
// by the instance parser), so every delta is exact and batch and scalar
// paths are bit-identical by construction.
package jobshop

import (
	"fmt"
	"slices"

	"pts/internal/rng"
	"pts/internal/schedinst"
	"pts/internal/tabu"
)

// New validates per-job machine routes and durations (machine[j][o],
// dur[j][o] for job j's o-th operation) and wraps them as an instance.
// Every job must visit every machine exactly once.
func New(name string, machine, dur [][]int) (*schedinst.JobShop, error) {
	if len(machine) == 0 || len(machine[0]) == 0 {
		return nil, fmt.Errorf("jobshop: empty routing")
	}
	jobs, machines := len(machine), len(machine[0])
	if len(dur) != jobs {
		return nil, fmt.Errorf("jobshop: %d duration rows for %d jobs", len(dur), jobs)
	}
	ins := &schedinst.JobShop{
		Name: name, Jobs: jobs, Machines: machines,
		Machine: machine, Dur: dur,
	}
	total := int64(0)
	seen := make([]int, machines)
	for j := 0; j < jobs; j++ {
		if len(machine[j]) != machines || len(dur[j]) != machines {
			return nil, fmt.Errorf("jobshop: job %d has %d/%d operations, want %d", j, len(machine[j]), len(dur[j]), machines)
		}
		for o := 0; o < machines; o++ {
			m := machine[j][o]
			if m < 0 || m >= machines {
				return nil, fmt.Errorf("jobshop: job %d op %d names machine %d, want [0,%d)", j, o, m, machines)
			}
			if seen[m] == j+1 {
				return nil, fmt.Errorf("jobshop: job %d visits machine %d twice", j, m)
			}
			seen[m] = j + 1
			if dur[j][o] < 0 {
				return nil, fmt.Errorf("jobshop: negative duration %d (job %d, op %d)", dur[j][o], j, o)
			}
			total += int64(dur[j][o])
		}
	}
	if total > 1<<31-1 {
		return nil, fmt.Errorf("jobshop: total processing time %d overflows the schedule arithmetic", total)
	}
	return ins, nil
}

// Random generates a random instance with durations in [1, 100) and a
// random machine route per job, deterministic in seed.
func Random(jobs, machines int, seed uint64) *schedinst.JobShop {
	r := rng.New(rng.Derive(seed, "jobshop"))
	machine := make([][]int, jobs)
	dur := make([][]int, jobs)
	for j := 0; j < jobs; j++ {
		machine[j] = r.Perm(machines)
		row := make([]int, machines)
		for o := range row {
			row[o] = 1 + r.Intn(99)
		}
		dur[j] = row
	}
	ins, err := New(fmt.Sprintf("js%dx%d", jobs, machines), machine, dur)
	if err != nil {
		panic(err) // unreachable: the generator respects the invariants
	}
	return ins
}

// MakespanSeq evaluates a job dispatch sequence (each job id appearing
// exactly Machines times) from scratch — the independent exact oracle
// and the brute-force workhorse.
func MakespanSeq(ins *schedinst.JobShop, jobs []int32) (int, error) {
	if len(jobs) != ins.Jobs*ins.Machines {
		return 0, fmt.Errorf("jobshop: sequence length %d != %d operations", len(jobs), ins.Jobs*ins.Machines)
	}
	jobNext := make([]int, ins.Jobs)
	jobReady := make([]int, ins.Jobs)
	machReady := make([]int, ins.Machines)
	mk := 0
	for _, j := range jobs {
		if j < 0 || int(j) >= ins.Jobs {
			return 0, fmt.Errorf("jobshop: job id %d out of range", j)
		}
		o := jobNext[j]
		if o >= ins.Machines {
			return 0, fmt.Errorf("jobshop: job %d dispatched more than %d times", j, ins.Machines)
		}
		jobNext[j] = o + 1
		m := ins.Machine[j][o]
		t := jobReady[j]
		if machReady[m] > t {
			t = machReady[m]
		}
		t += ins.Dur[j][o]
		jobReady[j], machReady[m] = t, t
		if t > mk {
			mk = t
		}
	}
	return mk, nil
}

// LowerBound is the machine/job load bound: no schedule beats any
// machine's total load or any job's total processing time.
func LowerBound(ins *schedinst.JobShop) int {
	lb := 0
	machLoad := make([]int, ins.Machines)
	for j := 0; j < ins.Jobs; j++ {
		total := 0
		for o := 0; o < ins.Machines; o++ {
			machLoad[ins.Machine[j][o]] += ins.Dur[j][o]
			total += ins.Dur[j][o]
		}
		if total > lb {
			lb = total
		}
	}
	for _, load := range machLoad {
		if load > lb {
			lb = load
		}
	}
	return lb
}

// BruteForceOptimum exhaustively searches every distinct job dispatch
// sequence; limited to tiny instances (n*m <= 12), the test oracle.
func BruteForceOptimum(ins *schedinst.JobShop) int {
	if ins.Jobs*ins.Machines > 12 {
		panic("jobshop: brute force limited to 12 operations")
	}
	remaining := make([]int, ins.Jobs)
	for j := range remaining {
		remaining[j] = ins.Machines
	}
	seq := make([]int32, 0, ins.Jobs*ins.Machines)
	best := -1
	var rec func()
	rec = func() {
		if len(seq) == cap(seq) {
			mk, err := MakespanSeq(ins, seq)
			if err != nil {
				panic(err) // unreachable: the recursion emits valid sequences
			}
			if best < 0 || mk < best {
				best = mk
			}
			return
		}
		for j := 0; j < ins.Jobs; j++ {
			if remaining[j] == 0 {
				continue
			}
			remaining[j]--
			seq = append(seq, int32(j))
			rec()
			seq = seq[:len(seq)-1]
			remaining[j]++
		}
	}
	rec()
	return best
}

// ckEvery is the checkpoint spacing of the decode: the heads and tails
// are kept at every ckEvery-th dispatch position. BenchmarkDeltaSwapBatch,
// median ns/cand of 15 alternating runs on a shared 2-vCPU host, at
// ckEvery 4 / 8 / 16:
//
//	js10x10       222 / 238 / 266
//	ft10          228 / 244 / 267
//	ft10-search   196 / 211 / 233
//
// Denser checkpoints cost more head copying on ApplySwap and more rows
// for the backward pass; sparser ones widen every trial's window by
// the partial blocks at both ends.
const ckEvery = 4

// State is a mutable operation-token permutation implementing the tabu
// engine's Problem interface plus the batched evaluation boundary.
// Element indices are dispatch positions; ApplySwap(a, b) exchanges the
// tokens at positions a and b.
type State struct {
	ins  *schedinst.JobShop
	n, m int32 // jobs, machines
	// mach and dur are flat copies: mach[j*m+o], dur[j*m+o].
	mach, dur []int32
	// perm[pos] is the operation token dispatched at position pos; the
	// token's job is perm[pos] / m, kept in seq[pos] so the decode
	// never divides.
	perm, seq []int32
	makespan  int32
	// ck holds the heads, the decode's fold state at the start of every
	// block of ckEvery positions: row c, of width 2n+m, is [jobNext |
	// jobReady | machReady] before position c*ckEvery. Row 0 is all
	// zero. Always current.
	ck []int32
	// tl holds the tails: row c, of width n+m, is the longest path from
	// each job's and each machine's ready time in head row c through the
	// operations dispatched from position c*ckEvery on, 0 for a machine
	// with none left. The extra end row is all zero: the makespan is the
	// latest ready time of any job or machine, as a machine's ready time
	// is the finish of some job's operation. Rows 0..tailDirty are stale
	// (tailDirty = -1: none); ensure rebuilds them before a trial reads
	// them.
	tl        []int32
	tailDirty int32
	// cur is the running fold row, nxt the backward pass's operation
	// counters and seen Restore's permutation check: scratch reused so
	// the hot path stays allocation-free.
	cur, nxt []int32
	seen     []bool
}

// NewState creates a state with a random token permutation drawn from
// seed.
func NewState(ins *schedinst.JobShop, seed uint64) *State {
	s := newState(ins)
	r := rng.New(rng.Derive(seed, "jobshop.state"))
	for i, v := range r.Perm(len(s.perm)) {
		s.perm[i] = int32(v)
	}
	s.rebuild()
	return s
}

// NewStateAt creates a state positioned at the token permutation snap.
func NewStateAt(ins *schedinst.JobShop, snap []int32) (*State, error) {
	s := newState(ins)
	if err := s.Restore(snap); err != nil {
		return nil, err
	}
	return s, nil
}

func newState(ins *schedinst.JobShop) *State {
	n, m := int32(ins.Jobs), int32(ins.Machines)
	size := int(n) * int(m)
	blocks := (size + ckEvery - 1) / ckEvery
	s := &State{
		ins: ins, n: n, m: m,
		mach: make([]int32, size),
		dur:  make([]int32, size),
		perm: make([]int32, size),
		seq:  make([]int32, size),
		ck:   make([]int32, blocks*int(2*n+m)),
		tl:   make([]int32, (blocks+1)*int(n+m)),
		cur:  make([]int32, 2*n+m),
		nxt:  make([]int32, n),
		seen: make([]bool, size),
	}
	for j := 0; j < ins.Jobs; j++ {
		for o := 0; o < ins.Machines; o++ {
			s.mach[j*int(m)+o] = int32(ins.Machine[j][o])
			s.dur[j*int(m)+o] = int32(ins.Dur[j][o])
		}
	}
	return s
}

// Instance returns the underlying instance.
func (s *State) Instance() *schedinst.JobShop { return s.ins }

// Cost returns the current makespan. Integral by construction, so the
// float64 view is exact.
func (s *State) Cost() float64 { return float64(s.makespan) }

// Makespan returns the current makespan as the integer it is.
func (s *State) Makespan() int { return int(s.makespan) }

// Size returns the number of dispatch positions (n*m operations).
func (s *State) Size() int32 { return s.n * s.m }

// dispatch decodes positions [from, to) of seq onto the fold row cur:
// each operation starts once its job and its machine are ready.
func (s *State) dispatch(cur []int32, from, to int32) {
	n, m := s.n, s.m
	jobNext, jobReady, machReady := cur[:n], cur[n:2*n], cur[2*n:]
	for _, j := range s.seq[from:to] {
		o := jobNext[j]
		jobNext[j] = o + 1
		op := j*m + o
		mc := s.mach[op]
		t := max(jobReady[j], machReady[mc]) + s.dur[op]
		jobReady[j] = t
		machReady[mc] = t
	}
}

// commit re-decodes seq, which differs from the sequence the heads were
// taken on only within positions [lo, hi], rewriting the heads it
// passes. It returns the makespan and the position it stopped at.
//
// It resumes from the head at or below lo. At every checkpoint past hi
// the same tokens have been dispatched, so every job's counter already
// matches the stored row; if the job and machine ready times match too,
// the rest of the schedule is the stored one and so is the makespan,
// and the decode stops there. Otherwise it runs to the end.
func (s *State) commit(lo, hi int32) (mk, stop int32) {
	n := s.n
	w := 2*n + s.m
	size := int32(len(s.seq))
	c := lo / ckEvery
	cur := s.cur
	copy(cur, s.ck[c*w:(c+1)*w])
	for pos := c * ckEvery; pos < size; pos += ckEvery {
		if pos > lo {
			row := s.ck[c*w : (c+1)*w]
			if pos > hi && slices.Equal(cur[n:], row[n:]) {
				return s.makespan, pos
			}
			copy(row, cur)
		}
		s.dispatch(cur, pos, min(pos+ckEvery, size))
		c++
	}
	return slices.Max(cur[n : 2*n]), size
}

// ensure rebuilds the stale tail rows tailDirty..0 in one backward pass
// from row tailDirty+1, which no swap since the last rebuild has
// touched. A dispatch step t = max(jobReady[j], machReady[mc]) + dur
// sends both ready times on through t, so before the step both get the
// tail dur + max(tail[j], tail[mc]). Walking backwards, each step's
// operation index comes from counting its job down from head row
// tailDirty+1 (all m past the end).
func (s *State) ensure() {
	top := s.tailDirty
	if top < 0 {
		return
	}
	n, m := s.n, s.m
	w, tw := 2*n+m, n+m
	size := int32(len(s.seq))
	nxt := s.nxt
	if (top+1)*ckEvery < size {
		copy(nxt, s.ck[(top+1)*w:])
	} else {
		for j := range nxt {
			nxt[j] = m
		}
	}
	for c := top; c >= 0; c-- {
		row := s.tl[c*tw : (c+1)*tw]
		copy(row, s.tl[(c+1)*tw:(c+2)*tw])
		jobTail, machTail := row[:n], row[n:]
		for pos := min((c+1)*ckEvery, size) - 1; pos >= c*ckEvery; pos-- {
			j := s.seq[pos]
			o := nxt[j] - 1
			nxt[j] = o
			op := j*m + o
			mc := s.mach[op]
			t := max(jobTail[j], machTail[mc]) + s.dur[op]
			jobTail[j] = t
			machTail[mc] = t
		}
	}
	s.tailDirty = -1
}

// rebuild derives seq, every head and every tail from perm and decodes
// the makespan from scratch.
func (s *State) rebuild() {
	for i, tok := range s.perm {
		s.seq[i] = tok / s.m
	}
	size := int32(len(s.seq))
	s.makespan, _ = s.commit(0, size-1)
	s.tailDirty = (size - 1) / ckEvery
	s.ensure()
}

// trial returns the makespan of seq with positions a and b exchanged,
// leaving the state as it was, and the position its decode stopped at.
// Decoding is max-plus linear, so the unchanged suffix past the first
// checkpoint e beyond max(a, b) needs no decode: the makespan is the
// largest sum of a ready time and its tail in row e. The decode runs
// from the head at or below min(a, b) to that checkpoint, or to the
// end when max(a, b) is in the last block. The tails must be current.
func (s *State) trial(a, b int32) (mk, stop int32) {
	n, w, tw := s.n, 2*s.n+s.m, s.n+s.m
	c, e := min(a, b)/ckEvery, max(a, b)/ckEvery+1
	stop = min(e*ckEvery, int32(len(s.seq)))
	cur := s.cur
	copy(cur, s.ck[c*w:(c+1)*w])
	seq := s.seq
	seq[a], seq[b] = seq[b], seq[a]
	s.dispatch(cur, c*ckEvery, stop)
	seq[a], seq[b] = seq[b], seq[a]
	tail := s.tl[e*tw : (e+1)*tw]
	for k, x := range cur[n:] {
		mk = max(mk, x+tail[k])
	}
	return mk, stop
}

// DeltaSwap returns the exact makespan change of exchanging the tokens
// at positions a and b without applying it. Two tokens of the same job
// leave the decoded schedule unchanged, so their swap is exactly zero.
// Anything else decodes only the window from the head at or below
// min(a, b) to the first checkpoint past max(a, b) and closes with that
// checkpoint's tails.
func (s *State) DeltaSwap(a, b int32) float64 {
	if a == b || s.seq[a] == s.seq[b] {
		return 0
	}
	s.ensure()
	mk, _ := s.trial(a, b)
	return float64(mk - s.makespan)
}

// DeltaSwapBatch evaluates a whole candidate batch in one call; out[i]
// is bit-for-bit what DeltaSwap(cands[i].A, cands[i].B) would return.
// Implements tabu.BatchEvaluator: the stale tail rows are rebuilt once,
// then each candidate runs the same windowed decode.
func (s *State) DeltaSwapBatch(cands []tabu.SwapCand, out []float64) {
	s.ensure()
	for i, c := range cands {
		if c.A == c.B || s.seq[c.A] == s.seq[c.B] {
			out[i] = 0
			continue
		}
		mk, _ := s.trial(c.A, c.B)
		out[i] = float64(mk - s.makespan)
	}
}

// ApplySwap exchanges the tokens at positions a and b and updates the
// makespan exactly, re-decoding (and rewriting the heads) only from the
// first changed block until the schedule re-converges. The tails of
// rows up to max(a, b)'s block go stale; the next evaluation rebuilds
// them.
func (s *State) ApplySwap(a, b int32) { s.apply(a, b) }

// apply is ApplySwap, returning where the commit decode stopped (-1
// when the sequence did not change).
func (s *State) apply(a, b int32) (stop int32) {
	if a == b {
		return -1
	}
	s.perm[a], s.perm[b] = s.perm[b], s.perm[a]
	if s.seq[a] == s.seq[b] {
		return -1
	}
	s.seq[a], s.seq[b] = s.seq[b], s.seq[a]
	s.makespan, stop = s.commit(min(a, b), max(a, b))
	s.tailDirty = max(s.tailDirty, max(a, b)/ckEvery)
	return stop
}

// Snapshot copies the current token permutation.
func (s *State) Snapshot() []int32 { return append([]int32(nil), s.perm...) }

// SnapshotInto copies the current token permutation into dst, reusing
// its storage when large enough; the allocation-free variant the
// parallel engine prefers.
func (s *State) SnapshotInto(dst []int32) []int32 {
	if cap(dst) < len(s.perm) {
		dst = make([]int32, len(s.perm))
	}
	dst = dst[:len(s.perm)]
	copy(dst, s.perm)
	return dst
}

// Restore replaces the token permutation with a snapshot and rebuilds
// the makespan and every checkpoint exactly.
func (s *State) Restore(snap []int32) error {
	if len(snap) != len(s.perm) {
		return fmt.Errorf("jobshop: snapshot length %d != %d", len(snap), len(s.perm))
	}
	clear(s.seen)
	for _, v := range snap {
		if v < 0 || int(v) >= len(s.perm) || s.seen[v] {
			return fmt.Errorf("jobshop: snapshot is not a permutation")
		}
		s.seen[v] = true
	}
	copy(s.perm, snap)
	s.rebuild()
	return nil
}
