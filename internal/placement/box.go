package placement

// netBox is a net's bounding box over its terminals' slot coordinates,
// augmented per axis with the runner-up order statistics: minX2 is the
// second-smallest pin column (equal to minX when several pins share the
// boundary — the boundary-multiplicity encoding), maxX2 the second
// largest, and likewise for rows. The runner-ups make every single-pin
// trial move O(1) with no fallback: removing the pin at a boundary
// exposes the runner-up as the new extreme, removing any other pin
// leaves the boundary alone, and the added pin can only push a boundary
// outward — the classic HPWL bookkeeping of timing-driven placers.
// Nets always have ≥ 2 pins (netlist.Finish enforces a driver plus at
// least one sink), so both statistics exist.
type netBox struct {
	minX, minX2, maxX2, maxX int32
	minY, minY2, maxY2, maxY int32
}

// length returns the half-perimeter of the box.
func (b *netBox) length() float64 {
	return float64(b.maxX-b.minX) + float64(b.maxY-b.minY)
}

// axisExtent returns one axis' extent after removing a pin at `from`
// and adding one at `to`, given the (m1 ≤ m2 … M2 ≤ M1) order
// statistics: the runner-up takes over when the boundary pin leaves,
// and the new pin can only push a boundary outward. Small enough to
// inline, and every conditional compiles to a CMOV.
func axisExtent(m1, m2, M2, M1, from, to int32) int32 {
	lo, hi := m1, M1
	if from == lo {
		lo = m2
	}
	if from == hi {
		hi = M2
	}
	if to < lo {
		lo = to
	}
	if to > hi {
		hi = to
	}
	return hi - lo
}

// trialDelta returns the integer change of the net's half-perimeter if
// one pin relocated from `from` to `to`, in O(1) with no pin access.
func (b *netBox) trialDelta(from, to Pos) int32 {
	return axisExtent(b.minX, b.minX2, b.maxX2, b.maxX, from.Col, to.Col) - (b.maxX - b.minX) +
		axisExtent(b.minY, b.minY2, b.maxY2, b.maxY, from.Row, to.Row) - (b.maxY - b.minY)
}

// commitAxis resolves one axis of a committed single-pin move against
// the (m1 ≤ m2 … M2 ≤ M1) order statistics. Removing a pin that sits at
// one of the four tracked statistics would expose an untracked third
// statistic, so ok=false demands a rescan; otherwise the removal leaves
// the statistics alone and the addition updates them exactly.
func commitAxis(m1, m2, M2, M1, from, to int32) (int32, int32, int32, int32, bool) {
	if from == to {
		return m1, m2, M2, M1, true
	}
	if from <= m2 || from >= M2 {
		return 0, 0, 0, 0, false
	}
	if to <= m1 {
		m2, m1 = m1, to
	} else if to < m2 {
		m2 = to
	}
	if to >= M1 {
		M2, M1 = M1, to
	} else if to > M2 {
		M2 = to
	}
	return m1, m2, M2, M1, true
}

// smallNetPins is the largest net degree whose box statistics hold the
// net's whole coordinate multiset on each axis: with k ≤ 4 pins every
// pin is one of (m1, m2, M2, M1), so a committed move updates the box
// in place (smallAxis) and never rescans.
const smallNetPins = 4

// smallAxis commits a single-pin move from→to on one axis of a net with
// k pins, 2 ≤ k ≤ smallNetPins. The axis' sorted coordinates are
// [m1 M1] for k = 2 (where m2 = M1 and M2 = m1), [m1 m2 M1] for k = 3
// (m2 = M2) and [m1 m2 M2 M1] for k = 4. One copy of `from` leaves,
// which keeps the others sorted as x ≤ y ≤ z, and `to` is merged in
// with min/max pairs that compile to conditional moves.
func smallAxis(k int, m1, m2, M2, M1, from, to int32) (int32, int32, int32, int32) {
	x, z := m1, M1
	if from == m1 {
		x = m2
	}
	if from == M1 {
		z = M2
	}
	switch k {
	case 2: // x is the one pin left
		lo, hi := min(x, to), max(x, to)
		return lo, hi, lo, hi
	case 3: // x ≤ z are left
		mid := max(x, min(to, z))
		return min(x, to), mid, mid, max(z, to)
	}
	y := M2
	if from > m2 {
		y = m2
	}
	return min(x, to), max(x, min(to, y)), max(y, min(to, z)), max(z, to)
}
