package rng

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams with equal seed diverged at step %d: %d != %d", i, x, y)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs out of 100", same)
	}
}

func TestDeriveLabelsDistinct(t *testing.T) {
	s := uint64(7)
	seen := map[uint64]string{}
	cases := []struct {
		name   string
		labels []string
	}{
		{"a,b", []string{"a", "b"}},
		{"ab", []string{"ab"}},
		{"b,a", []string{"b", "a"}},
		{"a", []string{"a"}},
		{"", nil},
		{"empty-one", []string{""}},
		{"empty-two", []string{"", ""}},
	}
	for _, c := range cases {
		d := Derive(s, c.labels...)
		if prev, ok := seen[d]; ok {
			t.Errorf("Derive collision between %q and %q", prev, c.name)
		}
		seen[d] = c.name
	}
}

func TestDeriveNDistinct(t *testing.T) {
	s := uint64(99)
	seen := map[uint64][]int{}
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			d := DeriveN(s, i, j)
			if prev, ok := seen[d]; ok {
				t.Fatalf("DeriveN collision: %v and %v", prev, []int{i, j})
			}
			seen[d] = []int{i, j}
		}
	}
}

func TestDeriveIsPure(t *testing.T) {
	if Derive(3, "x") != Derive(3, "x") {
		t.Fatal("Derive is not deterministic")
	}
	if DeriveN(3, 1, 2) != DeriveN(3, 1, 2) {
		t.Fatal("DeriveN is not deterministic")
	}
}

// TestUniformity is a coarse chi-squared check on the low byte: splitmix64
// should distribute uniformly across 256 buckets.
func TestUniformity(t *testing.T) {
	g := NewSplitMix64(12345)
	const n = 1 << 16
	var buckets [256]int
	for i := 0; i < n; i++ {
		buckets[g.Uint64()&0xff]++
	}
	expect := float64(n) / 256
	chi2 := 0.0
	for _, c := range buckets {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// 255 degrees of freedom; mean 255, sd ~22.6. 5 sigma ~ 368.
	if chi2 > 368 {
		t.Fatalf("chi-squared %.1f too high for uniform low byte", chi2)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 || math.IsNaN(f) {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

// Property: deriving with different worker indices never yields the same
// first output as the parent stream (no accidental stream aliasing).
func TestQuickDeriveNoAlias(t *testing.T) {
	f := func(seed uint64, idx uint8) bool {
		parent := New(seed)
		child := New(DeriveN(seed, int(idx)))
		// Compare a few outputs; equality of all would mean aliasing.
		same := 0
		for i := 0; i < 4; i++ {
			if parent.Uint64() == child.Uint64() {
				same++
			}
		}
		return same < 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := NewSplitMix64(0xdeadbeef)
	for i := 0; i < 1000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative value %d", v)
		}
	}
}

func BenchmarkSplitMix64(b *testing.B) {
	g := NewSplitMix64(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += g.Uint64()
	}
	_ = sink
}

func BenchmarkDerive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Derive(uint64(i), "tsw", "clw")
	}
}

// exactNs are the Intn bounds the exactness contract is checked on:
// 1, powers of two, small and odd sizes, 2^30+1 and 2^31/1.5 (which
// reject about a half and a third of all draws), 2^31-1 (the largest
// Int31n bound) and bounds at and above 2^31, which take math/rand's
// Int63n path.
var exactNs = []int{
	1, 2, 4, 1 << 10, 1 << 30, 3, 12, 395, 1<<30 + 1, 1431655766, 1<<31 - 1,
	1 << 31, 1<<31 + 1, 3 << 40, 1<<62 + 1, 1<<63 - 1,
}

// checkLockstep fails unless g and the source behind ref are at the
// same position of the stream.
func checkLockstep(t *testing.T, g, ref *SplitMix64, what string) {
	t.Helper()
	if g.state != ref.state {
		t.Fatalf("%s: stream out of lockstep with math/rand", what)
	}
}

// TestExactAgainstMathRand: over several seeds, every Intn bound of
// exactNs, drawn directly and through a Bound where one exists and
// interleaved with Uint64 and Int63 calls, returns what
// rand.New(NewSplitMix64(seed)) returns and leaves the stream where
// math/rand leaves it.
func TestExactAgainstMathRand(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 0xdeadbeef, 1 << 63} {
		g, src := NewSplitMix64(seed), NewSplitMix64(seed)
		ref := rand.New(src)
		for _, n := range exactNs {
			var b Bound
			if n < 1<<31 {
				b = NewBound(n)
			}
			for i := 0; i < 2000; i++ {
				if got, want := g.Intn(n), ref.Intn(n); got != want {
					t.Fatalf("seed %d: Intn(%d) draw %d = %d, math/rand %d", seed, n, i, got, want)
				}
				if n < 1<<31 {
					if got, want := g.IntnBound(&b), ref.Intn(n); got != want {
						t.Fatalf("seed %d: IntnBound(%d) draw %d = %d, math/rand %d", seed, n, i, got, want)
					}
				}
				switch i % 3 {
				case 0:
					if got, want := g.Uint64(), ref.Uint64(); got != want {
						t.Fatalf("seed %d: Uint64 after Intn(%d) = %d, math/rand %d", seed, n, got, want)
					}
				case 1:
					if got, want := g.Int63(), ref.Int63(); got != want {
						t.Fatalf("seed %d: Int63 after Intn(%d) = %d, math/rand %d", seed, n, got, want)
					}
				}
				checkLockstep(t, g, src, "Intn")
			}
		}
	}
}

// TestIntnRejects: bounds that reject a third to a half of all draws
// (2^30+1 and 2^31/1.5 on the Int31n path, 2^62+1 on the Int63n path)
// do make Intn redraw, so the exactness test, which draws from them
// too, exercises the rejection loops and not only the single-draw path.
func TestIntnRejects(t *testing.T) {
	g := NewSplitMix64(7)
	for _, n := range []int{1<<30 + 1, 1431655766, 1<<62 + 1} {
		once := *g // advanced one value per draw
		for i := 0; i < 1000; i++ {
			g.Intn(n)
			once.Uint64()
		}
		if g.state == once.state {
			t.Errorf("Intn(%d): 1000 draws consumed no extra value", n)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSplitMix64(1).Intn(0) },
		func() { NewSplitMix64(1).Intn(-3) },
		func() { NewBound(0) },
		func() { NewBound(1 << 31) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid bound accepted")
				}
			}()
			f()
		}()
	}
}

// FuzzExactAgainstMathRand drives a generator and math/rand over the
// same seed through a fuzzed sequence of Uint64, Int63, Intn and
// IntnBound calls: every value must agree and the streams must stay in
// lockstep. Each op byte picks the call and, for Intn, a bound from
// exactNs, the fuzzed n, or the fuzzed n folded into [1, 2^31).
func FuzzExactAgainstMathRand(f *testing.F) {
	f.Add(uint64(1), uint64(12), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add(uint64(2), uint64(1<<30+1), []byte{4, 4, 4, 5, 5, 0, 1, 4})
	f.Add(uint64(3), uint64(1<<31), []byte{3, 3, 2, 1, 0})
	f.Add(uint64(0), uint64(1<<63+5), []byte{3, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, seed, un uint64, ops []byte) {
		g, src := NewSplitMix64(seed), NewSplitMix64(seed)
		ref := rand.New(src)
		n := int(un >> 1) // a non-negative int on 64-bit platforms
		if n == 0 {
			n = 1
		}
		small := int(un%(1<<31-1)) + 1
		b := NewBound(small)
		for _, op := range ops {
			switch op % 6 {
			case 0:
				if got, want := g.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("Uint64 = %d, math/rand %d", got, want)
				}
			case 1:
				if got, want := g.Int63(), ref.Int63(); got != want {
					t.Fatalf("Int63 = %d, math/rand %d", got, want)
				}
			case 2:
				if got, want := g.Intn(n), ref.Intn(n); got != want {
					t.Fatalf("Intn(%d) = %d, math/rand %d", n, got, want)
				}
			case 3:
				m := exactNs[int(op/6)%len(exactNs)]
				if got, want := g.Intn(m), ref.Intn(m); got != want {
					t.Fatalf("Intn(%d) = %d, math/rand %d", m, got, want)
				}
			case 4:
				if got, want := g.Intn(small), ref.Intn(small); got != want {
					t.Fatalf("Intn(%d) = %d, math/rand %d", small, got, want)
				}
			case 5:
				if got, want := g.IntnBound(&b), ref.Intn(small); got != want {
					t.Fatalf("IntnBound(%d) = %d, math/rand %d", small, got, want)
				}
			}
			checkLockstep(t, g, src, "fuzzed call sequence")
		}
	})
}

// intSink keeps the benchmarked draws from being optimised away.
var intSink int

// BenchmarkIntnPair draws one trial pair — a range draw and a whole-
// space draw, as a CLW step does per trial on c532 — through math/rand,
// through the exact Intn behind an interface, directly, and directly
// through hoisted Bounds.
func BenchmarkIntnPair(b *testing.B) {
	const lo, n = 395, 1580
	b.Run("mathrand", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			intSink += r.Intn(lo) + r.Intn(n)
		}
	})
	b.Run("interface", func(b *testing.B) {
		var r interface{ Intn(int) int } = NewSplitMix64(1)
		for i := 0; i < b.N; i++ {
			intSink += r.Intn(lo) + r.Intn(n)
		}
	})
	b.Run("direct", func(b *testing.B) {
		r := NewSplitMix64(1)
		for i := 0; i < b.N; i++ {
			intSink += r.Intn(lo) + r.Intn(n)
		}
	})
	b.Run("bound", func(b *testing.B) {
		r := NewSplitMix64(1)
		bl, bn := NewBound(lo), NewBound(n)
		for i := 0; i < b.N; i++ {
			intSink += r.IntnBound(&bl) + r.IntnBound(&bn)
		}
	})
}
