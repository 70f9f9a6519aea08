package cost

import (
	"slices"
	"sync"
)

// cacheCap bounds the evaluated states a run keeps. A barrier has at
// most TSWs+1 live permutations: the adopted best, which every TSW
// restores, and each TSW's diversified state, which its CLWs restore.
// Twice the 8 TSWs of the paper's figures keeps one barrier's entries
// alive while workers that trail behind publish the next barrier's.
const cacheCap = 16

// stateCache holds a run's fully evaluated placement states, keyed by
// permutation, so that each distinct permutation is imported and timed
// once per run: a restore or spawn of a permutation another worker has
// already evaluated copies that worker's state instead. Everything an
// evaluator holds after a Refresh depends only on its permutation and
// the run's goals (Evaluator.Refresh canonicalizes what incremental
// updates leave ambiguous), so a copy is bit-identical to recomputing.
//
// Workers share one cache across goroutines. Entries are never handed
// out: a hit copies the entry under mu, and publishing overwrites the
// oldest entry under mu. Entry storage is reused across runs.
type stateCache struct {
	mu      sync.Mutex
	entries []cacheEntry // grows to cacheCap; [0, live) belong to this run
	live    int
	next    int     // FIFO replacement cursor
	scratch []int32 // publish's export buffer, swapped into the entry it fills
}

// cacheEntry is one evaluated state and the permutation it denotes.
type cacheEntry struct {
	hash uint64
	perm []int32
	ev   *Evaluator
}

// hashPerm is FNV-1a over the permutation's elements; it allocates
// nothing. A hash match is confirmed by comparing the permutations.
func hashPerm(perm []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range perm {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// reset forgets every entry; the next run's goals differ. Storage stays
// for reuse.
func (c *stateCache) reset() {
	c.mu.Lock()
	c.live, c.next = 0, 0
	c.mu.Unlock()
}

// find returns the live entry holding perm, or nil. Callers hold mu.
func (c *stateCache) find(h uint64, perm []int32) *cacheEntry {
	for i := range c.entries[:c.live] {
		if en := &c.entries[i]; en.hash == h && slices.Equal(en.perm, perm) {
			return en
		}
	}
	return nil
}

// copyTo overwrites dst with the cached state of perm and reports
// whether there was one. A nil cache has none.
func (c *stateCache) copyTo(dst *Evaluator, perm []int32) bool {
	if c == nil {
		return false
	}
	h := hashPerm(perm)
	c.mu.Lock()
	defer c.mu.Unlock()
	en := c.find(h, perm)
	if en == nil {
		return false
	}
	dst.copyFrom(en.ev)
	return true
}

// clone returns an independent copy of the cached state of perm, or nil
// on a miss.
func (c *stateCache) clone(perm []int32) *Evaluator {
	h := hashPerm(perm)
	c.mu.Lock()
	defer c.mu.Unlock()
	if en := c.find(h, perm); en != nil {
		return en.ev.Clone()
	}
	return nil
}

// publish records ev's current state, which must be fully evaluated
// (freshly imported or refreshed), unless its permutation is cached
// already. When the cache is full the oldest entry makes room. A nil
// cache publishes nothing.
func (c *stateCache) publish(ev *Evaluator) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scratch = ev.ExportPermInto(c.scratch)
	h := hashPerm(c.scratch)
	if c.find(h, c.scratch) != nil {
		return
	}
	if c.next == len(c.entries) {
		c.entries = append(c.entries, cacheEntry{})
	}
	en := &c.entries[c.next]
	en.hash = h
	en.perm, c.scratch = c.scratch, en.perm
	if en.ev == nil {
		en.ev = ev.Clone()
	} else {
		en.ev.copyFrom(ev)
	}
	c.live = max(c.live, c.next+1)
	c.next = (c.next + 1) % cacheCap
}
