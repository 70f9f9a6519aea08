package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// windows is the number of equal op-count windows ops_per_s is the
// median over.
const windows = 10

// exactSeeds is how many leading seeds of the list the exact per-op
// counts (messages, trials) are averaged over; every phase of a run
// covers at least this many.
const exactSeeds = 16

// warmOps is the number of untimed warm-up ops per client.
const warmOps = 3

// deriveSeeds expands the run seed into a workload's seed list.
func deriveSeeds(seed uint64, name string, n int) []uint64 {
	h := seed
	for _, c := range name {
		h = splitmix(h ^ uint64(c))
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = splitmix(h+uint64(i)) | 1
	}
	return out
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// opRec is one finished op.
type opRec struct {
	idx  int // position in the phase's op sequence
	seed uint64
	out  opOut
	err  error
	// slowdown is how much slower than the reference the host ran the
	// op's wall time, from the calibration kernel times around it and
	// the share of CPU time stolen during it; cpuSlowdown leaves the
	// steal out, for CPU time (see calib.go).
	slowdown, cpuSlowdown float64
	steal                 float64
}

func (r opRec) latency() time.Duration { return r.out.end.Sub(r.out.start) }

// normMs is the op's latency in milliseconds at the reference host
// speed.
func (r opRec) normMs() float64 { return float64(r.latency()) / 1e6 / r.slowdown }

// seedBook remembers each seed's first verified result. When strict, a
// seed that comes round again (or is rerun traced) must reproduce it
// bit for bit.
type seedBook struct {
	strict bool
	mu     sync.Mutex
	seen   map[uint64]opOut
}

func newSeedBook(strict bool) *seedBook { return &seedBook{strict: strict, seen: map[uint64]opOut{}} }

func (b *seedBook) check(seed uint64, o opOut) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	first, ok := b.seen[seed]
	if !ok {
		b.seen[seed] = o
		return nil
	}
	if b.strict && (first.cost != o.cost || first.hash != o.hash) {
		return fmt.Errorf("seed %d not reproducible: best cost %v (permutation %x), first run %v (%x)",
			seed, o.cost, o.hash, first.cost, first.hash)
	}
	return nil
}

// get returns the first recorded result of seed.
func (b *seedBook) get(seed uint64) (opOut, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	o, ok := b.seen[seed]
	return o, ok
}

// runOps drives the stack with closed-loop clients: each client issues
// its next op when the previous one returned, reads the steal counter
// around it, and runs the calibration kernel between ops. Op i runs
// seeds[i mod len(seeds)]. Clients stop once the deadline passed and at
// least minOps ops were issued; every issued op completes. It also
// returns the CPU time the calibration kernel used.
func (r *runner) runOps(st *stack, seeds []uint64, minOps int, deadline time.Time, tr *tracer) ([]opRec, time.Duration) {
	ctx, clients, book := r.ctx, r.w.clients, r.book
	var next atomic.Int64
	recs := make([][]opRec, clients)
	calCPU := make([]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cal := newCalibrator()
			before := cal.unit()
			calCPU[c] += before
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= minOps && !time.Now().Before(deadline) {
					return
				}
				seed := seeds[i%len(seeds)]
				var opID int64
				if tr != nil {
					opID = tr.newID()
				}
				steal0, ok0 := stealTime()
				out, err := st.op(ctx, c, seed, opID)
				steal1, ok1 := stealTime()
				if err == nil {
					err = book.check(seed, out)
				}
				if tr != nil && !out.start.IsZero() {
					tr.add(span{ID: opID, Op: opID, Name: "op", Start: tr.at(out.start), End: tr.at(out.end)})
				}
				after := cal.unit()
				calCPU[c] += after
				rec := opRec{idx: i, seed: seed, out: out, err: err}
				if ok0 && ok1 {
					rec.steal = stealShare(steal0, steal1, rec.latency())
				}
				sp := speed(before, after)
				rec.slowdown = slowdown(sp, rec.steal, r.w.calibExp)
				rec.cpuSlowdown = slowdown(sp, 0, r.w.calibExp)
				recs[c] = append(recs[c], rec)
				before = after
			}
		}(c)
	}
	wg.Wait()
	var all []opRec
	var cpu time.Duration
	for c := range recs {
		all = append(all, recs[c]...)
		cpu += calCPU[c]
	}
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	return all, cpu
}

// phase is one measured stretch of a run: its ops and what the process
// spent on them.
type phase struct {
	recs    []opRec
	clients int
	cpu     time.Duration // process CPU, less the calibration kernel's
	wall    time.Duration
	allocs  uint64 // heap allocations
	gcs     uint32 // completed GC cycles
}

// mean averages f over the phase's ops (0 without ops).
func (p phase) mean(f func(opRec) float64) float64 {
	if len(p.recs) == 0 {
		return 0
	}
	var t float64
	for _, r := range p.recs {
		t += f(r)
	}
	return t / float64(len(p.recs))
}

// succeeded returns the ops that passed every gate, ordered by end.
func succeeded(recs []opRec) []opRec {
	var ok []opRec
	for _, r := range recs {
		if r.err == nil {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].out.end.Before(ok[j].out.end) })
	return ok
}

// windowRates splits the successful ops (in completion order) into
// equal op-count windows and returns each window's closed-loop
// throughput at the reference host speed: clients × ops / Σ latency,
// Little's law for a closed loop, so the clients' own verification and
// calibration time between ops is not counted. ops_per_s is their
// median.
func windowRates(ok []opRec, clients int) []float64 {
	n := len(ok)
	w := min(windows, n)
	rates := make([]float64, 0, w)
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		var busyMs float64
		for _, r := range ok[lo:hi] {
			busyMs += r.normMs()
		}
		rates = append(rates, float64(clients*(hi-lo))*1e3/busyMs)
	}
	return rates
}

// tailPercentile returns the highest percentile, starting from want,
// with at least ten of n samples beyond it.
func tailPercentile(want float64, n int) float64 {
	for _, p := range []float64{99, 98.5, 98, 97.5, 97, 96, 95, 90, 80, 50} {
		if p <= want && float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile interpolates linearly between closest ranks; xs must be
// sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// durationsMs converts durations to sorted milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux
// reports maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// seedMean averages f over the first n seeds of the list using each
// seed's first verified result; ok is false if a seed has none.
func seedMean(book *seedBook, seeds []uint64, n int, f func(opOut) float64) (float64, bool) {
	n = min(n, len(seeds))
	var t float64
	for _, s := range seeds[:n] {
		o, found := book.get(s)
		if !found {
			return 0, false
		}
		t += f(o)
	}
	return t / float64(n), true
}
