package tabu

import "pts/internal/rng"

// Frequency is the long-term memory: how often each element has been
// moved. The Kelly et al. diversification scheme the paper uses forces
// moves of rarely-moved elements to push the search into unexplored
// regions.
type Frequency struct {
	count []int64
	total int64
}

// NewFrequency creates a frequency memory for n elements.
func NewFrequency(n int32) *Frequency {
	return &Frequency{count: make([]int64, n)}
}

// BumpSwap records that elements a and b were moved.
func (f *Frequency) BumpSwap(a, b int32) {
	f.count[a]++
	f.count[b]++
	f.total += 2
}

// BumpMove records every element of a compound move.
func (f *Frequency) BumpMove(m *CompoundMove) {
	for _, s := range m.Swaps {
		f.BumpSwap(s.A, s.B)
	}
}

// Count returns how often element e has moved.
func (f *Frequency) Count(e int32) int64 { return f.count[e] }

// Total returns the total number of element moves recorded.
func (f *Frequency) Total() int64 { return f.total }

// LeastMoved returns the element within [lo, hi) with the lowest move
// count, breaking ties uniformly at random with r: the k-th element
// tied at the running minimum makes a reservoir draw r.Intn(k) and
// replaces the pick when it draws 0. The half-open range is the caller's diversification
// range (its subset of cells). Panics if the range is empty.
func (f *Frequency) LeastMoved(r *rng.SplitMix64, lo, hi int32) int32 {
	if hi <= lo {
		panic("tabu: empty range in LeastMoved")
	}
	count := f.count[lo:hi]
	best, least := 0, count[0]
	ties := 1
	for e := 1; e < len(count); e++ {
		switch c := count[e]; {
		case c < least:
			best, least = e, c
			ties = 1
		case c == least:
			ties++
			if r.Intn(ties) == 0 {
				best = e
			}
		}
	}
	return lo + int32(best)
}

// Export returns a copy of the per-element move counts — the
// long-term-memory half of a worker checkpoint.
func (f *Frequency) Export() []int64 {
	return append([]int64(nil), f.count...)
}

// Import replaces the counts with an exported snapshot; entries beyond
// the memory's size are ignored, missing ones count as zero.
func (f *Frequency) Import(counts []int64) {
	f.total = 0
	for i := range f.count {
		if i < len(counts) {
			f.count[i] = counts[i]
		} else {
			f.count[i] = 0
		}
		f.total += f.count[i]
	}
}

// Reset clears all counts.
func (f *Frequency) Reset() {
	for i := range f.count {
		f.count[i] = 0
	}
	f.total = 0
}
