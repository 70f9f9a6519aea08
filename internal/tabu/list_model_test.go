package tabu

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// mapList is the map-backed short-term memory List replaced: every
// attribute ever added stays in a map until the map outgrows pruneAt
// (at least 1,024 entries), when AddAt sweeps the entries expired at
// its iteration and doubles pruneAt if half the map survived. It is the
// oracle List must match on every query made at or after the latest
// iteration given to AddAt or Import since the last Reset: entries
// expired by then are invisible to such queries, so when each of them
// is swept cannot matter.
type mapList struct {
	expiry  map[Attribute]int64
	pruneAt int
	// sweeps and doublings count the oracle's sweep path, so a test can
	// show it ran.
	sweeps, doublings int
}

func newMapList() *mapList {
	return &mapList{expiry: make(map[Attribute]int64), pruneAt: 1024}
}

func (m *mapList) Add(at Attribute, until int64) {
	if cur, ok := m.expiry[at]; !ok || cur < until {
		m.expiry[at] = until
	}
}

func (m *mapList) AddAt(at Attribute, now, until int64) {
	if cur, ok := m.expiry[at]; ok && cur >= until {
		return
	}
	if len(m.expiry) > m.pruneAt {
		m.sweeps++
		for a, e := range m.expiry {
			if e <= now {
				delete(m.expiry, a)
			}
		}
		if len(m.expiry) > m.pruneAt/2 {
			m.pruneAt *= 2
			m.doublings++
		}
	}
	m.expiry[at] = until
}

func (m *mapList) IsTabu(at Attribute, iter int64) bool {
	e, ok := m.expiry[at]
	return ok && iter < e
}

func (m *mapList) RemainingTenure(attrs []Attribute, iter int64) int64 {
	var rem int64
	for _, at := range attrs {
		if e, ok := m.expiry[at]; ok && e > iter {
			rem = max(rem, e-iter)
		}
	}
	return rem
}

func (m *mapList) Export(now int64) []Entry {
	out := make([]Entry, 0, len(m.expiry))
	for at, e := range m.expiry {
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

func (m *mapList) Import(entries []Entry, now int64) {
	for _, en := range entries {
		m.AddAt(en.At, now, now+en.Remaining)
	}
}

func (m *mapList) Reset() { clear(m.expiry) }

// runListOps decodes ops into a sequence of List calls, makes each on a
// List and on the map oracle, and fails t at the first answer that
// differs. The clock only moves forward between Resets, and every query
// is made at or after it. One opcode adds a burst of over 1,024
// distinct attributes, which drives the oracle through its sweeps. It
// returns the oracle, whose counters show which of its paths ran.
func runListOps(t testing.TB, ops []byte) *mapList {
	t.Helper()
	l, m := NewList(), newMapList()
	var now int64
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	// attr draws from 136 attributes over 16 elements, so adds collide
	// and re-adds extend.
	attr := func() Attribute {
		b := next()
		return Attr(int32(b&15), int32(b>>4))
	}
	// burstAttr is the k-th attribute of a burst, distinct from attr's.
	burstAttr := func(k int) Attribute {
		return Attr(int32(k%40), int32(16+k/40))
	}
	swaps := func() []Swap {
		s := make([]Swap, 1+next()%4)
		for i := range s {
			at := attr()
			s[i] = Swap{A: at.B, B: at.A}
		}
		return s
	}
	query := func() int64 { return now + int64(next()%20) }
	checkExport := func(q int64) {
		got, want := l.Export(q), m.Export(q)
		if !slices.Equal(got, want) {
			t.Fatalf("Export(%d) = %v, want %v", q, got, want)
		}
	}
	for len(ops) > 0 {
		switch op := next() % 12; op {
		case 0:
			at, until := attr(), now+int64(next()%24)-4
			l.Add(at, until)
			m.Add(at, until)
		case 1, 2:
			at, until := attr(), now+int64(next()%24)-4
			l.AddAt(at, now, until)
			m.AddAt(at, now, until)
		case 3:
			now += int64(next() % 8)
		case 4:
			at, q := attr(), query()
			if got, want := l.IsTabu(at, q), m.IsTabu(at, q); got != want {
				t.Fatalf("IsTabu(%v, %d) = %v, want %v", at, q, got, want)
			}
		case 5:
			sw, q := swaps(), query()
			attrs := make([]Attribute, len(sw))
			for i, s := range sw {
				attrs[i] = s.Attribute()
			}
			want := m.RemainingTenure(attrs, q)
			tabu, rem := l.TabuStateSwaps(sw, q)
			if tabu != (want > 0) || rem != want {
				t.Fatalf("TabuStateSwaps(%v, %d) = %v, %d, want remaining %d", sw, q, tabu, rem, want)
			}
			if got := l.RemainingTenureSwaps(sw, q); got != want {
				t.Fatalf("RemainingTenureSwaps(%v, %d) = %d, want %d", sw, q, got, want)
			}
			if got := l.RemainingTenure(attrs, q); got != want {
				t.Fatalf("RemainingTenure(%v, %d) = %d, want %d", attrs, q, got, want)
			}
			if got := l.AnyTabuSwaps(sw, q); got != (want > 0) {
				t.Fatalf("AnyTabuSwaps(%v, %d) = %v, want %v", sw, q, got, want > 0)
			}
		case 6:
			checkExport(query())
		case 7:
			entries := make([]Entry, next()%6)
			for i := range entries {
				entries[i] = Entry{At: attr(), Remaining: int64(next() % 16)}
			}
			l.Import(entries, now)
			m.Import(entries, now)
		case 8:
			// Round trip through another list, as a TSW adopts the
			// winner's list at the barrier.
			entries := m.Export(now)
			l.Reset()
			m.Reset()
			now = int64(next()) - 128
			l.Import(entries, now)
			m.Import(entries, now)
		case 9:
			l.Reset()
			m.Reset()
			now = int64(next()) - 128
		case 10:
			k, q := int(next())<<3|int(next()&7), query()
			at := burstAttr(k)
			if got, want := l.IsTabu(at, q), m.IsTabu(at, q); got != want {
				t.Fatalf("IsTabu(%v, %d) = %v, want %v", at, q, got, want)
			}
		case 11:
			if next()%4 != 0 {
				break
			}
			n := 1025 + int(next())*4
			tenure, step := 1+int64(next()%64), int64(next()%2)
			for k := range n {
				l.AddAt(burstAttr(k), now, now+tenure)
				m.AddAt(burstAttr(k), now, now+tenure)
				now += step
			}
		}
	}
	checkExport(now)
	return m
}

// TestListMatchesMapModel runs random call sequences on List and on the
// map-backed list it replaced, and requires the same answer to every
// query and the same export after every sequence. Some sequences add
// bursts of over 1,024 attributes, so the oracle's sweep and doubling
// paths run.
func TestListMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sweeps, doublings := 0, 0
	for seq := 0; seq < 300; seq++ {
		ops := make([]byte, 1+r.Intn(400))
		r.Read(ops)
		m := runListOps(t, ops)
		sweeps += m.sweeps
		doublings += m.doublings
	}
	if sweeps == 0 || doublings == 0 {
		t.Fatalf("the oracle swept %d times and doubled %d times; want both", sweeps, doublings)
	}
}

// FuzzListMatchesMapModel is TestListMatchesMapModel over fuzzed call
// sequences.
func FuzzListMatchesMapModel(f *testing.F) {
	f.Add([]byte{1, 0x21, 30, 4, 0x21, 3, 6, 2})
	f.Add([]byte{11, 0, 200, 63, 1, 10, 5, 9, 3, 7, 6, 0})
	f.Add([]byte{7, 5, 0x31, 9, 0x42, 3, 8, 130, 5, 2, 0x31, 0x42, 6, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runListOps(t, ops)
	})
}
