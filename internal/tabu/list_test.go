package tabu

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestAttrCanonical(t *testing.T) {
	if Attr(5, 2) != Attr(2, 5) {
		t.Error("Attr not canonical")
	}
	if Attr(2, 5) != (Attribute{A: 2, B: 5}) {
		t.Error("Attr wrong order")
	}
}

func TestListTenure(t *testing.T) {
	l := NewList()
	l.Add(Attr(1, 2), 10)
	for iter := int64(0); iter < 10; iter++ {
		if !l.IsTabu(Attr(1, 2), iter) {
			t.Fatalf("should be tabu at iter %d", iter)
		}
	}
	if l.IsTabu(Attr(1, 2), 10) {
		t.Error("should expire at iter 10")
	}
	if l.IsTabu(Attr(3, 4), 0) {
		t.Error("never-added attribute is tabu")
	}
}

func TestListAddNeverShortens(t *testing.T) {
	l := NewList()
	l.Add(Attr(1, 2), 20)
	l.Add(Attr(1, 2), 5) // must not shorten
	if !l.IsTabu(Attr(1, 2), 15) {
		t.Error("re-add shortened tenure")
	}
	l.Add(Attr(1, 2), 30) // extend
	if !l.IsTabu(Attr(1, 2), 25) {
		t.Error("re-add did not extend tenure")
	}
}

func TestAnyTabu(t *testing.T) {
	l := NewList()
	l.Add(Attr(1, 2), 10)
	if !l.AnyTabuSwaps([]Swap{{A: 7, B: 8}, {A: 2, B: 1}}, 5) {
		t.Error("AnyTabuSwaps missed a tabu swap")
	}
	if l.AnyTabuSwaps([]Swap{{A: 7, B: 8}}, 5) {
		t.Error("AnyTabuSwaps false positive")
	}
	if l.AnyTabuSwaps([]Swap{{A: 1, B: 2}}, 10) {
		t.Error("AnyTabuSwaps after the tenure expired")
	}
	if l.AnyTabuSwaps(nil, 5) {
		t.Error("AnyTabuSwaps on an empty move")
	}
}

func TestRemainingTenure(t *testing.T) {
	l := NewList()
	l.Add(Attr(1, 2), 10)
	l.Add(Attr(3, 4), 20)
	attrs := []Attribute{Attr(1, 2), Attr(3, 4)}
	if got := l.RemainingTenure(attrs, 5); got != 15 {
		t.Errorf("RemainingTenure = %d, want 15", got)
	}
	if got := l.RemainingTenure(attrs, 25); got != 0 {
		t.Errorf("expired RemainingTenure = %d, want 0", got)
	}
}

func TestExportImport(t *testing.T) {
	l := NewList()
	l.Add(Attr(1, 2), 110) // remaining 10 at now=100
	l.Add(Attr(3, 4), 105) // remaining 5
	l.Add(Attr(5, 6), 90)  // expired
	entries := l.Export(100)
	if len(entries) != 2 {
		t.Fatalf("Export kept %d entries, want 2", len(entries))
	}

	// Import into a list with a completely different clock.
	m := NewList()
	m.Import(entries, 1000)
	if !m.IsTabu(Attr(1, 2), 1009) || m.IsTabu(Attr(1, 2), 1010) {
		t.Error("imported tenure wrong for (1,2)")
	}
	if !m.IsTabu(Attr(3, 4), 1004) || m.IsTabu(Attr(3, 4), 1005) {
		t.Error("imported tenure wrong for (3,4)")
	}
	if m.IsTabu(Attr(5, 6), 1000) {
		t.Error("expired entry resurrected")
	}
}

// TestListPruneBoundsGrowth: a search that adds one short-lived
// attribute per iteration through AddAt keeps a list bounded by its
// live entries, however many attributes it has seen. With tenure 5 at
// most 5 entries are live, and the table holds those live at its last
// rebuild plus the ones added since, a small multiple of them.
func TestListPruneBoundsGrowth(t *testing.T) {
	const tenure = 5
	l := NewList()
	maxLen := 0
	for i := int64(0); i < 100000; i++ {
		l.AddAt(Attr(int32(i%1000), int32(i%1000)+1+int32(i/1000)), i, i+tenure)
		maxLen = max(maxLen, l.Len())
	}
	if maxLen > 8*(tenure+1) {
		t.Fatalf("tabu list grew to %d entries with at most %d live", maxLen, tenure)
	}
}

// TestListSweepKeepsLiveEntries: a rebuild during AddAt drops only what
// has expired by the caller's iteration. Adding one attribute per
// iteration with tenure 7 fills the table many times over, and the
// attribute added 6 iterations earlier must still be tabu. A sweep
// against the new entry's expiry instead of the current iteration
// dropped it 12 times in this loop.
func TestListSweepKeepsLiveEntries(t *testing.T) {
	l := NewList()
	failed := 0
	for i := int64(0); i < 3000; i++ {
		l.AddAt(Attr(int32(i), int32(i)+1), i, i+7)
		if j := i - 6; j >= 0 && !l.IsTabu(Attr(int32(j), int32(j)+1), i) {
			failed++
		}
	}
	if failed > 0 {
		t.Fatalf("%d attributes still within their tenure were swept", failed)
	}
}

// TestAddNeverSweeps: Add knows no current iteration, so it keeps every
// entry however large the list grows, and each stays tabu.
func TestAddNeverSweeps(t *testing.T) {
	l := NewList()
	for i := int64(0); i < 3000; i++ {
		l.Add(Attr(int32(i), int32(i)+1), i+7)
	}
	if l.Len() != 3000 {
		t.Fatalf("Len = %d after 3000 distinct Adds, want 3000", l.Len())
	}
	for i := int64(0); i < 3000; i++ {
		if !l.IsTabu(Attr(int32(i), int32(i)+1), i+6) {
			t.Fatalf("attribute %d dropped before its expiry", i)
		}
	}
}

func TestReset(t *testing.T) {
	l := NewList()
	l.Add(Attr(1, 2), 100)
	l.Reset()
	if l.Len() != 0 || l.IsTabu(Attr(1, 2), 0) {
		t.Error("Reset did not clear")
	}
}

// Property: export/import round-trips remaining tenures exactly.
func TestQuickExportImportRoundTrip(t *testing.T) {
	f := func(pairs []uint16, nowRaw uint8) bool {
		now := int64(nowRaw)
		l := NewList()
		for _, p := range pairs {
			a, b := int32(p>>8), int32(p&0xff)
			if a == b {
				continue
			}
			l.Add(Attr(a, b), now+int64(p%37)+1)
		}
		entries := l.Export(now)
		m := NewList()
		m.Import(entries, now)
		for _, e := range entries {
			if l.RemainingTenure([]Attribute{e.At}, now) != m.RemainingTenure([]Attribute{e.At}, now) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestExportSorted: Export lists the live attributes in attribute order
// whatever order they were added in, so equal lists export equal
// slices.
func TestExportSorted(t *testing.T) {
	attrs := []Attribute{Attr(9, 3), Attr(1, 7), Attr(1, 2), Attr(4, 5), Attr(0, 8)}
	a, b := NewList(), NewList()
	for i, at := range attrs {
		a.Add(at, 50+int64(i))
		b.Add(attrs[len(attrs)-1-i], 50+int64(len(attrs)-1-i))
	}
	ea, eb := a.Export(10), b.Export(10)
	if !slices.Equal(ea, eb) {
		t.Fatalf("equal lists exported %v and %v", ea, eb)
	}
	if !slices.IsSortedFunc(ea, func(x, y Entry) int {
		if x.At.A != y.At.A {
			return int(x.At.A - y.At.A)
		}
		return int(x.At.B - y.At.B)
	}) {
		t.Fatalf("Export not in attribute order: %v", ea)
	}
}

// TestTabuListAllocFree: a TSW's per-iteration use of its short-term
// memory allocates nothing once the list has reached its steady size.
// AddAt at every iteration (the table rebuilds into the two tables it
// alternates between), TabuStateSwaps on every candidate, and the
// barrier's Reset and Import of the winner's list allocate 0; Export
// allocates only its result, and ExportInto a large enough buffer
// nothing.
func TestTabuListAllocFree(t *testing.T) {
	const tenure = 10
	l := NewList()
	iter := int64(0)
	step := func() {
		iter++
		for k := int32(0); k < 4; k++ {
			a := int32(iter*7+int64(k)*13) % 200
			l.AddAt(Attr(a, a+1+k), iter, iter+tenure)
		}
	}
	for range 1000 {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("AddAt: %v allocs per iteration, want 0", n)
	}
	swaps := []Swap{{A: 3, B: 9}, {A: 50, B: 7}, {A: 120, B: 121}}
	if n := testing.AllocsPerRun(1000, func() { l.TabuStateSwaps(swaps, iter) }); n != 0 {
		t.Errorf("TabuStateSwaps: %v allocs, want 0", n)
	}
	winner := l.Export(iter)
	if len(winner) == 0 {
		t.Fatal("nothing live to export")
	}
	if n := testing.AllocsPerRun(1000, func() {
		l.Reset()
		l.Import(winner, iter)
	}); n != 0 {
		t.Errorf("Reset+Import: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { l.Export(iter) }); n != 1 {
		t.Errorf("Export: %v allocs, want 1 (its result)", n)
	}
	buf := make([]Entry, 0, len(winner))
	if n := testing.AllocsPerRun(1000, func() { buf = l.ExportInto(buf, iter) }); n != 0 {
		t.Errorf("ExportInto a large enough buffer: %v allocs, want 0", n)
	}
	if !slices.Equal(buf, winner) {
		t.Errorf("ExportInto = %v, Export = %v", buf, winner)
	}
}
