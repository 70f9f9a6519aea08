package tabu

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// List is the short-term memory: recently used move attributes and the
// iteration until which they stay tabu. The zero value is not usable;
// call NewList.
//
// The attributes sit in a small open-addressing hash table (linear
// probing, Fibonacci hashing of the attribute's two indices), so every
// probe is O(1) whatever the list has seen. Expired entries are not
// removed one by one: when an insert would fill the table past half,
// AddAt rebuilds it from the entries still tabu at its current
// iteration, into a table of four times their number (rounded up to a
// power of two). The table therefore holds the entries live at the
// latest rebuild plus those added since, a small multiple of what can
// still be tabu, and the two tables a rebuild alternates between are
// reused, so in steady state only Export allocates.
type List struct {
	slots []slot // the table; len is a power of two, at least minSlots
	n     int    // occupied slots
	shift uint8  // 64 - log2(len(slots)): the hash keeps the top bits
	spare []slot // the table before the last rebuild, reused by the next
}

// slot is one table cell; until == free marks an empty one.
type slot struct {
	at    Attribute
	until int64
}

const (
	// free is the expiry of an empty slot. No iteration precedes it, so
	// an attribute tabu until free is never tabu and is not stored.
	free = math.MinInt64
	// minSlots is the smallest table.
	minSlots = 16
)

// NewList creates an empty tabu list.
func NewList() *List {
	l := &List{}
	l.slots, l.shift = emptyTable(nil, minSlots)
	return l
}

// emptyTable returns a table of size empty slots, reusing buf's storage
// when it is large enough, and the hash shift for that size.
func emptyTable(buf []slot, size int) ([]slot, uint8) {
	if cap(buf) < size {
		buf = make([]slot, size)
	}
	buf = buf[:size]
	for i := range buf {
		buf[i] = slot{until: free}
	}
	return buf, uint8(64 - bits.TrailingZeros(uint(size)))
}

// probe returns the index of at's slot, or of the empty slot where at
// would go, and whether at is stored.
func (l *List) probe(at Attribute) (int, bool) {
	key := uint64(uint32(at.A))<<32 | uint64(uint32(at.B))
	mask := len(l.slots) - 1
	i := int((key * 0x9E3779B97F4A7C15) >> l.shift)
	for {
		s := &l.slots[i]
		if s.until == free {
			return i, false
		}
		if s.at == at {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// expiry returns the iteration until which at is tabu, or free when it
// is not stored.
func (l *List) expiry(at Attribute) int64 {
	i, _ := l.probe(at)
	return l.slots[i].until
}

// set stores at as tabu until `until`, never shortening a stored
// tenure. An insert that would fill the table past half first rebuilds
// it, dropping the entries no longer tabu at now.
func (l *List) set(at Attribute, until, now int64) {
	i, ok := l.probe(at)
	if ok {
		if l.slots[i].until < until {
			l.slots[i].until = until
		}
		return
	}
	if until == free {
		return
	}
	if 2*(l.n+1) > len(l.slots) {
		l.rebuild(now)
		i, _ = l.probe(at)
	}
	l.slots[i] = slot{at: at, until: until}
	l.n++
}

// rebuild moves the entries still tabu at now into a table of at least
// four times their number, so the next rebuild is as many inserts away
// as they are.
func (l *List) rebuild(now int64) {
	live := 0
	for _, s := range l.slots {
		if s.until > now {
			live++
		}
	}
	size := minSlots
	for size < 4*(live+1) {
		size *= 2
	}
	old := l.slots
	l.slots, l.shift = emptyTable(l.spare, size)
	l.spare = old
	l.n = 0
	for _, s := range old {
		if s.until > now {
			i, _ := l.probe(s.at)
			l.slots[i] = s
			l.n++
		}
	}
}

// Add marks the attribute tabu until iteration `until` (exclusive): it is
// tabu for iterations iter < until. Re-adding extends but never shortens
// a tenure. Add knows no current iteration, so it drops nothing: a
// rebuild it triggers keeps every entry. A search that adds at every
// iteration uses AddAt, which bounds the list by its live entries.
func (l *List) Add(at Attribute, until int64) {
	l.set(at, until, free)
}

// AddAt is Add made at iteration now, the caller's current iteration.
// When the insert fills the table, the rebuild drops the entries that
// are no longer tabu at now; every entry still tabu at now stays.
func (l *List) AddAt(at Attribute, now, until int64) {
	l.set(at, until, now)
}

// IsTabu reports whether the attribute is tabu at iteration iter.
func (l *List) IsTabu(at Attribute, iter int64) bool {
	return iter < l.expiry(at)
}

// AnyTabuSwaps reports whether any swap of a compound move is tabu at
// iter; the paper's TSW rejects a compound move if any of its swaps is
// tabu. Each attribute is derived in place, so the per-iteration
// selection path allocates nothing.
func (l *List) AnyTabuSwaps(swaps []Swap, iter int64) bool {
	for _, s := range swaps {
		if l.IsTabu(s.Attribute(), iter) {
			return true
		}
	}
	return false
}

// RemainingTenure returns the number of iterations (at iter) until every
// attribute in attrs expires; 0 when nothing is tabu. Used as the
// least-tabu fallback ordering when no candidate is admissible.
func (l *List) RemainingTenure(attrs []Attribute, iter int64) int64 {
	var max int64
	for _, at := range attrs {
		if e := l.expiry(at); e > iter {
			if r := e - iter; r > max {
				max = r
			}
		}
	}
	return max
}

// RemainingTenureSwaps is RemainingTenure over a swap sequence, deriving
// each attribute in place.
func (l *List) RemainingTenureSwaps(swaps []Swap, iter int64) int64 {
	_, remaining := l.TabuStateSwaps(swaps, iter)
	return remaining
}

// TabuStateSwaps reports, in one pass over a swap sequence, whether any
// swap's attribute is tabu at iter and the iterations until every one
// of them expires (0 when nothing is tabu) — AnyTabuSwaps and
// RemainingTenureSwaps fused, so the batched selection probes the
// short-term memory once per candidate.
func (l *List) TabuStateSwaps(swaps []Swap, iter int64) (tabu bool, remaining int64) {
	for _, s := range swaps {
		if e := l.expiry(s.Attribute()); e > iter {
			tabu = true
			if r := e - iter; r > remaining {
				remaining = r
			}
		}
	}
	return tabu, remaining
}

// Len returns the number of stored attributes: those still tabu at the
// latest rebuild plus every one added since, some of which may have
// expired. Under AddAt it stays within a small multiple of the
// attributes that can still be tabu.
func (l *List) Len() int { return l.n }

// Entry is one serialized tabu-list element: an attribute and its
// remaining tenure relative to the exporter's iteration counter.
// The relative form lets workers with different local iteration counters
// exchange lists, as the paper's master and TSWs do.
type Entry struct {
	At        Attribute
	Remaining int64
}

// Export serializes the attributes still tabu at iteration now, sorted
// by attribute: the table's order depends on the insertion history, and
// identical lists must serialize (into checkpoints and stored
// snapshots) to identical bytes. The result is a new slice, safe to
// send; it is its only allocation.
func (l *List) Export(now int64) []Entry {
	return l.ExportInto(make([]Entry, 0, l.n), now)
}

// ExportInto is Export into dst's storage, reallocating only when dst
// is too small.
func (l *List) ExportInto(dst []Entry, now int64) []Entry {
	dst = dst[:0]
	for _, s := range l.slots {
		if s.until > now {
			dst = append(dst, Entry{At: s.at, Remaining: s.until - now})
		}
	}
	slices.SortFunc(dst, func(x, y Entry) int {
		if c := cmp.Compare(x.At.A, y.At.A); c != 0 {
			return c
		}
		return cmp.Compare(x.At.B, y.At.B)
	})
	return dst
}

// Import merges exported entries into the list relative to the local
// iteration counter now.
func (l *List) Import(entries []Entry, now int64) {
	for _, en := range entries {
		l.AddAt(en.At, now, now+en.Remaining)
	}
}

// Reset clears the list in place, keeping its table.
func (l *List) Reset() {
	for i := range l.slots {
		l.slots[i] = slot{until: free}
	}
	l.n = 0
}
