// Package rng provides deterministic random number generation for the
// whole repository.
//
// Every process in the parallel tabu search (master, TSW, CLW), every
// synthetic circuit, and every experiment derives its generator from a
// single master seed through a labelled split. Two runs with the same
// master seed therefore produce bit-identical results, no matter how the
// work is distributed across goroutines, and two components never share a
// stream by accident.
//
// The generator is splitmix64 (Steele, Lea, Flood 2014): tiny state, full
// 64-bit output, passes BigCrush, and — unlike math/rand's global source —
// cheap to fork per component.
//
// # Exactness contract
//
// SplitMix64 is both a math/rand.Source64 and a generator in its own
// right. Its Uint64, Int63 and Intn return exactly what the same-named
// methods of rand.New(NewSplitMix64(seed)) return, value for value and
// draw for draw, so a search drawing from a *SplitMix64 follows the
// trajectory it followed through math/rand. IntnBound is Intn with the
// bound's constants computed once per loop instead of once per draw.
// Intn replays math/rand's Int31n (n < 2^31) and Int63n (n >= 2^31)
// rejection sampling, which rejects the top 2^31 mod n values (none for
// a power of two, which math/rand masks instead), but on the concrete
// state: no Source interface call, and at most one division (none
// through a Bound). The property test TestExactAgainstMathRand and the
// fuzz target FuzzExactAgainstMathRand (rng_test.go) guard the contract
// against the math/rand of the Go version that runs them.
package rng

import (
	"math/bits"
	"math/rand"
)

// golden is the splitmix64 increment, floor(2^64 / phi).
const golden = 0x9e3779b97f4a7c15

// mix is the splitmix64 output function applied to a state value.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix64 is a splitmix64 PRNG. The zero value is a valid generator
// seeded with 0. It implements math/rand.Source and math/rand.Source64.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Int63 implements math/rand.Source.
func (s *SplitMix64) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Seed implements math/rand.Source. It reseeds the generator in place:
// afterwards it draws the stream NewSplitMix64(uint64(seed)) would.
func (s *SplitMix64) Seed(seed int64) {
	s.state = uint64(seed)
}

// int31 is math/rand's Int31: the top 31 bits of the next value.
func (s *SplitMix64) int31() uint32 {
	s.state += golden
	return uint32(mix(s.state) >> 33)
}

// Intn returns, as an int, a value in [0, n): the value
// rand.New(s).Intn(n) would return, consuming the same draws. It
// panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(s.int63n(int64(n)))
	}
	un := uint32(n)
	v := s.int31()
	// math/rand rejects the top 2^31 mod n values of [0, 2^31), all of
	// which lie among its top n: below those no bound is needed. It
	// masks a power-of-two n instead, but then 2^31 mod n is 0 and
	// v % n is the masked value.
	if v >= 1<<31-un {
		for limit := 1<<31 - (1<<31)%un; v >= limit; {
			v = s.int31()
		}
	}
	return int(v % un)
}

// int63n is math/rand's Int63n for n >= 2^31. As in Intn, a power-of-two
// n needs no mask of its own: max is then 2^63-1 and v % n is v & (n-1).
func (s *SplitMix64) int63n(n int64) int64 {
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// Bound is a draw range [0, n) with 0 < n < 2^31 whose constants are
// computed once, for loops that draw from the same range many times.
// The zero value is not usable; call NewBound.
type Bound struct {
	n uint32
	// limit is math/rand's rejection threshold, 2^31 - 2^31 mod n:
	// draws at or above it are redrawn.
	limit uint32
	// m is Lemire's multiplier ceil(2^64 / n): v mod n is the high word
	// of (m*v mod 2^64) * n for every 32-bit v (Lemire, Kaser and Kurz,
	// "Faster remainder by direct computation", 2019). For n = 1 it
	// wraps to 0, which still yields v mod 1 = 0.
	m uint64
}

// NewBound returns the bound for draws in [0, n). It panics unless
// 0 < n < 2^31.
func NewBound(n int) Bound {
	if n <= 0 || n > 1<<31-1 {
		panic("rng: NewBound argument outside (0, 2^31)")
	}
	b := Bound{n: uint32(n), m: ^uint64(0)/uint64(n) + 1}
	b.limit = 1<<31 - b.mod(1<<31)
	return b
}

// mod returns v mod n without dividing.
func (b *Bound) mod(v uint32) uint32 {
	hi, _ := bits.Mul64(b.m*uint64(v), uint64(b.n))
	return uint32(hi)
}

// IntnBound returns Intn(n) for the bound's n: the same value from the
// same draws, with no division.
func (s *SplitMix64) IntnBound(b *Bound) int {
	for {
		// One loop, so the call inlines; a redraw is rare.
		if v := s.int31(); v < b.limit {
			return int(b.mod(v))
		}
	}
}

// New returns a *rand.Rand backed by a splitmix64 source with the given
// seed. The returned generator is NOT safe for concurrent use; derive one
// per goroutine instead of sharing.
func New(seed uint64) *rand.Rand {
	return rand.New(NewSplitMix64(seed))
}

// Derive deterministically derives a child seed from a parent seed and a
// sequence of labels. Labels are hashed with an FNV-1a style fold followed
// by a splitmix64 finalizer, so Derive(s, "a", "b") != Derive(s, "ab") and
// sibling streams are statistically independent.
func Derive(seed uint64, labels ...string) uint64 {
	h := seed
	for _, l := range labels {
		h ^= 0xcbf29ce484222325
		for i := 0; i < len(l); i++ {
			h ^= uint64(l[i])
			h *= 0x100000001b3
		}
		h = mix(h + golden)
	}
	return h
}

// DeriveN derives a child seed from a parent seed and a sequence of
// integer indices (e.g. worker numbers). Like Derive, the mapping is
// injective over practical inputs and avalanche-mixed.
func DeriveN(seed uint64, idx ...int) uint64 {
	h := seed
	for _, i := range idx {
		h = mix(h ^ (uint64(i)+golden)*0xff51afd7ed558ccd)
	}
	return h
}

// NewChild is shorthand for NewSplitMix64(Derive(seed, labels...)).
func NewChild(seed uint64, labels ...string) *SplitMix64 {
	return NewSplitMix64(Derive(seed, labels...))
}
