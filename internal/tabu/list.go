package tabu

import (
	"cmp"
	"slices"
)

// List is the short-term memory: recently used move attributes and the
// iteration until which they stay tabu. The zero value is not usable;
// call NewList.
type List struct {
	expiry map[Attribute]int64
	// pruneAt bounds the map's growth: once the map exceeds this size,
	// expired entries are swept during the next AddAt.
	pruneAt int
}

// NewList creates an empty tabu list.
func NewList() *List {
	return &List{expiry: make(map[Attribute]int64), pruneAt: 1024}
}

// Add marks the attribute tabu until iteration `until` (exclusive): it is
// tabu for iterations iter < until. Re-adding extends but never shortens
// a tenure. Add never sweeps expired entries; a search that adds at
// every iteration uses AddAt, which bounds the list's growth.
func (l *List) Add(at Attribute, until int64) {
	if cur, ok := l.expiry[at]; !ok || cur < until {
		l.expiry[at] = until
	}
}

// AddAt is Add made at iteration now, the caller's current iteration.
// Once the list has grown past its sweep threshold, it first drops the
// entries that are no longer tabu at now; every entry still tabu at now
// stays.
func (l *List) AddAt(at Attribute, now, until int64) {
	if cur, ok := l.expiry[at]; ok && cur >= until {
		return
	}
	if len(l.expiry) > l.pruneAt {
		l.prune(now)
	}
	l.expiry[at] = until
}

// prune drops entries that are not tabu at iteration now.
func (l *List) prune(now int64) {
	for at, e := range l.expiry {
		if e <= now {
			delete(l.expiry, at)
		}
	}
	if len(l.expiry) > l.pruneAt/2 {
		l.pruneAt *= 2
	}
}

// IsTabu reports whether the attribute is tabu at iteration iter.
func (l *List) IsTabu(at Attribute, iter int64) bool {
	e, ok := l.expiry[at]
	return ok && iter < e
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
		if e, ok := l.expiry[at]; ok && e > iter {
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
	var max int64
	for _, s := range swaps {
		if e, ok := l.expiry[s.Attribute()]; ok && e > iter {
			if r := e - iter; r > max {
				max = r
			}
		}
	}
	return max
}

// TabuStateSwaps reports, in one pass over a swap sequence, whether any
// swap's attribute is tabu at iter and the iterations until every one
// of them expires (0 when nothing is tabu) — AnyTabuSwaps and
// RemainingTenureSwaps fused, so the batched selection probes the
// short-term memory once per candidate.
func (l *List) TabuStateSwaps(swaps []Swap, iter int64) (tabu bool, remaining int64) {
	for _, s := range swaps {
		if e, ok := l.expiry[s.Attribute()]; ok && e > iter {
			tabu = true
			if r := e - iter; r > remaining {
				remaining = r
			}
		}
	}
	return tabu, remaining
}

// Len returns the number of stored attributes (including expired ones
// not yet pruned).
func (l *List) Len() int { return len(l.expiry) }

// Entry is one serialized tabu-list element: an attribute and its
// remaining tenure relative to the exporter's iteration counter.
// The relative form lets workers with different local iteration counters
// exchange lists, as the paper's master and TSWs do.
type Entry struct {
	At        Attribute
	Remaining int64
}

// Export serializes the attributes still tabu at iteration now, sorted
// by attribute: the map's iteration order is random, and identical
// lists must serialize (into checkpoints and stored snapshots) to
// identical bytes.
func (l *List) Export(now int64) []Entry {
	out := make([]Entry, 0, len(l.expiry))
	for at, e := range l.expiry {
		if e > now {
			out = append(out, Entry{At: at, Remaining: e - now})
		}
	}
	slices.SortFunc(out, func(x, y Entry) int {
		if c := cmp.Compare(x.At.A, y.At.A); c != 0 {
			return c
		}
		return cmp.Compare(x.At.B, y.At.B)
	})
	return out
}

// Import merges exported entries into the list relative to the local
// iteration counter now.
func (l *List) Import(entries []Entry, now int64) {
	for _, en := range entries {
		l.AddAt(en.At, now, now+en.Remaining)
	}
}

// Reset clears the list in place: the map keeps its storage, so a list
// refilled to its previous size after every reset stops regrowing.
func (l *List) Reset() {
	clear(l.expiry)
}
