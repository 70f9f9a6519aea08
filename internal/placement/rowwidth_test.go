package placement

import (
	"fmt"
	"math/rand"
	"testing"

	"pts/internal/netlist"
)

// Edge-case coverage for the top-two row-width tracking behind
// MaxRowWidthAfterSwap/AfterMove: equal-width cells, same-row swaps,
// cross-row swaps involving one or both of the top-two rows, and tied
// row widths. Every case is checked against the brute-force oracle
// (clone, commit, recompute), so the O(1) answers must be exact.

// widthNetlist builds a minimal netlist whose cells carry the given
// widths (one chain net keeps Finish happy).
func widthNetlist(t *testing.T, widths []int) *netlist.Netlist {
	t.Helper()
	nl := &netlist.Netlist{Name: "widths"}
	for i, w := range widths {
		nl.Cells = append(nl.Cells, netlist.Cell{Name: fmt.Sprintf("c%d", i), Width: w})
	}
	for i := 0; i+1 < len(widths); i++ {
		nl.Nets = append(nl.Nets, netlist.Net{
			Name:   fmt.Sprintf("n%d", i),
			Driver: netlist.CellID(i),
			Sinks:  []netlist.CellID{netlist.CellID(i + 1)},
		})
	}
	if err := nl.Finish(); err != nil {
		t.Fatal(err)
	}
	return nl
}

// bruteAfterSwap commits the swap on a clone and reads the recomputed
// maximum row width.
func bruteAfterSwap(p *Placement, a, b netlist.CellID) int {
	q := p.Clone()
	q.SwapCells(a, b)
	return fullMaxRowWidth(q)
}

func TestMaxRowWidthAfterSwapEdgeCases(t *testing.T) {
	// 2x3 grid, placed in index order:
	//   row 0: c0 c1 c2     row 1: c3 c4 c5
	for _, tc := range []struct {
		name   string
		widths []int
		a, b   int
	}{
		{"equal-width-cross-row", []int{2, 2, 2, 2, 2, 2}, 0, 3},
		{"same-row", []int{5, 1, 1, 2, 2, 2}, 0, 1},
		{"cross-row-widens-top", []int{5, 1, 1, 2, 2, 2}, 1, 3},
		{"cross-row-shrinks-top", []int{5, 1, 1, 2, 2, 2}, 0, 3},
		{"tied-rows", []int{2, 2, 2, 3, 2, 1}, 0, 5},
		{"both-top-rows-touched", []int{4, 4, 4, 4, 4, 4}, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl := widthNetlist(t, tc.widths)
			p, err := New(nl, Layout{Rows: 2, Cols: 3})
			if err != nil {
				t.Fatal(err)
			}
			a, b := netlist.CellID(tc.a), netlist.CellID(tc.b)
			want := bruteAfterSwap(p, a, b)
			if got := p.MaxRowWidthAfterSwap(a, b); got != want {
				t.Fatalf("MaxRowWidthAfterSwap(%d,%d) = %d, brute force = %d", a, b, got, want)
			}
		})
	}
}

func TestMaxRowWidthAfterSwapExhaustiveRandom(t *testing.T) {
	// Random widths over a 4-row grid: every cell pair, repeatedly, with
	// commits between rounds so the top-two cache ages through updates
	// and fallback rescans.
	r := rand.New(rand.NewSource(23))
	widths := make([]int, 24)
	for i := range widths {
		widths[i] = 1 + r.Intn(4)
	}
	nl := widthNetlist(t, widths)
	p, err := New(nl, Layout{Rows: 4, Cols: 6})
	if err != nil {
		t.Fatal(err)
	}
	n := nl.NumCells()
	for round := 0; round < 20; round++ {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := netlist.CellID(i), netlist.CellID(j)
				if got, want := p.MaxRowWidthAfterSwap(a, b), bruteAfterSwap(p, a, b); got != want {
					t.Fatalf("round %d: MaxRowWidthAfterSwap(%d,%d) = %d, brute force = %d",
						round, a, b, got, want)
				}
			}
		}
		a, b := randomPair(r, n)
		p.SwapCells(a, b)
	}
}
