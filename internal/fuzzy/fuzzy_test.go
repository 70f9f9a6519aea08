package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMembershipShape(t *testing.T) {
	m := Membership{Goal: 10, Ceiling: 20}
	cases := []struct{ x, want float64 }{
		{5, 1}, {10, 1}, {15, 0.5}, {20, 0}, {25, 0}, {12.5, 0.75},
	}
	for _, c := range cases {
		if got := m.Eval(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestMembershipValid(t *testing.T) {
	if err := (Membership{Goal: 1, Ceiling: 2}).Valid(); err != nil {
		t.Errorf("valid rejected: %v", err)
	}
	for _, m := range []Membership{
		{Goal: 2, Ceiling: 2},
		{Goal: 3, Ceiling: 2},
		{Goal: math.NaN(), Ceiling: 2},
	} {
		if err := m.Valid(); err == nil {
			t.Errorf("invalid membership %+v accepted", m)
		}
	}
}

// Property: membership is always in [0,1] and monotone nonincreasing.
func TestQuickMembershipMonotone(t *testing.T) {
	f := func(goal int16, span uint8, x1, x2 int32) bool {
		m := Membership{Goal: float64(goal), Ceiling: float64(goal) + float64(span) + 1}
		a, b := float64(x1), float64(x2)
		if a > b {
			a, b = b, a
		}
		ma, mb := m.Eval(a), m.Eval(b)
		return ma >= 0 && ma <= 1 && mb >= 0 && mb <= 1 && ma >= mb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOWACombine(t *testing.T) {
	o := OWA{Beta: 0.5}
	// min = 0.2, mean = 0.5 → 0.5*0.2 + 0.5*0.5 = 0.35
	if got := o.Combine(0.2, 0.8, 0.5); math.Abs(got-0.35) > 1e-9 {
		t.Errorf("Combine = %v, want 0.35", got)
	}
	if got := (OWA{Beta: 1}).Combine(0.2, 0.8); got != 0.2 {
		t.Errorf("pure-min OWA = %v", got)
	}
	if got := (OWA{Beta: 0}).Combine(0.2, 0.8); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("pure-mean OWA = %v", got)
	}
	if (OWA{Beta: 0.5}).Combine() != 0 {
		t.Error("empty Combine should be 0")
	}
}

func TestOWAValid(t *testing.T) {
	for _, beta := range []float64{-0.1, 1.1, math.NaN()} {
		if err := (OWA{Beta: beta}).Valid(); err == nil {
			t.Errorf("beta %v accepted", beta)
		}
	}
	if err := (OWA{Beta: 0.7}).Valid(); err != nil {
		t.Errorf("valid beta rejected: %v", err)
	}
}

// Property: OWA lies between min and mean (for beta in [0,1]) and within
// [0,1] for memberships in [0,1].
func TestQuickOWABounds(t *testing.T) {
	f := func(raw []uint8, betaRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		mu := make([]float64, len(raw))
		min, sum := 1.0, 0.0
		for i, r := range raw {
			mu[i] = float64(r) / 255
			if mu[i] < min {
				min = mu[i]
			}
			sum += mu[i]
		}
		mean := sum / float64(len(mu))
		o := OWA{Beta: float64(betaRaw) / 255}
		got := o.Combine(mu...)
		return got >= min-1e-9 && got <= mean+1e-9 && got >= -1e-9 && got <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAndOr(t *testing.T) {
	if And(0.3, 0.7) != 0.3 || And() != 0 {
		t.Error("And wrong")
	}
	if Or(0.3, 0.7) != 0.7 || Or() != 0 {
		t.Error("Or wrong")
	}
}

// Property: And <= OWA <= Or for any beta.
func TestQuickOperatorOrdering(t *testing.T) {
	f := func(a, b, c uint8, betaRaw uint8) bool {
		mu := []float64{float64(a) / 255, float64(b) / 255, float64(c) / 255}
		o := OWA{Beta: float64(betaRaw) / 255}
		owa := o.Combine(mu...)
		return And(mu...) <= owa+1e-9 && owa <= Or(mu...)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
