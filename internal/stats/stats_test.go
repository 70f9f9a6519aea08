package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) < 1e-9
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, math.NaN()},
		{[]float64{4}, 4},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almost(got, c.want) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 32.0/7.0) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7.0)) {
		t.Errorf("StdDev = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of singleton should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 8, 0}
	if Min(xs) != -2 || Max(xs) != 8 {
		t.Errorf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be +/-Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestMedianOdd(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); !almost(got, 5) {
		t.Errorf("Median = %v, want 5", got)
	}
}

// Property: the accumulator matches the batch formulas.
func TestQuickAccumulatorMatchesBatch(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		var acc Accumulator
		for i, v := range raw {
			xs[i] = float64(v)
			acc.Add(float64(v))
		}
		return almostRel(acc.Mean(), Mean(xs)) &&
			almostRel(acc.Variance(), Variance(xs)) &&
			acc.Min() == Min(xs) && acc.Max() == Max(xs) && acc.N() == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func almostRel(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Variance()) || !math.IsNaN(a.Min()) || !math.IsNaN(a.Max()) {
		t.Error("empty accumulator should report NaN")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "q"
	s.Add(1, 10)
	s.Add(2, 20)
	if got := s.Ys(); len(got) != 2 || got[1] != 20 {
		t.Errorf("Ys = %v", got)
	}
}

func TestTraceBasics(t *testing.T) {
	var tr Trace
	if !math.IsNaN(tr.Final()) || !math.IsNaN(tr.BestCost()) || tr.End() != 0 {
		t.Error("empty trace should be NaN/0")
	}
	tr.Record(0, 100)
	tr.Record(1, 80)
	tr.Record(2, 90) // non-improving observation is kept
	tr.Record(3, 60)
	if tr.Len() != 4 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Final() != 60 || tr.BestCost() != 60 || tr.End() != 3 {
		t.Errorf("Final/BestCost/End wrong: %v %v %v", tr.Final(), tr.BestCost(), tr.End())
	}
}

func TestTimeToReach(t *testing.T) {
	var tr Trace
	tr.Record(0, 100)
	tr.Record(5, 70)
	tr.Record(9, 50)
	if tm, ok := tr.TimeToReach(70); !ok || tm != 5 {
		t.Errorf("TimeToReach(70) = %v,%v", tm, ok)
	}
	if tm, ok := tr.TimeToReach(100); !ok || tm != 0 {
		t.Errorf("TimeToReach(100) = %v,%v", tm, ok)
	}
	if _, ok := tr.TimeToReach(10); ok {
		t.Error("TimeToReach(10) should not be reached")
	}
}

func TestSpeedup(t *testing.T) {
	var base, fast, never Trace
	base.Record(0, 100)
	base.Record(10, 50)
	fast.Record(0, 100)
	fast.Record(2, 50)
	never.Record(0, 100)
	never.Record(4, 90)

	if s, ok := Speedup(&base, &fast, 50); !ok || !almost(s, 5) {
		t.Errorf("Speedup = %v,%v want 5,true", s, ok)
	}
	// Not reached: lower bound uses end time 4 -> 10/4 = 2.5, reached=false.
	if s, ok := Speedup(&base, &never, 50); ok || !almost(s, 2.5) {
		t.Errorf("Speedup (unreached) = %v,%v want 2.5,false", s, ok)
	}
	// Base never reaches: NaN.
	if s, ok := Speedup(&never, &fast, 50); ok || !math.IsNaN(s) {
		t.Errorf("Speedup (base unreached) = %v,%v", s, ok)
	}
}

func TestSpeedupInstantReach(t *testing.T) {
	var base, tr Trace
	base.Record(0, 100)
	base.Record(8, 40)
	tr.Record(0, 40) // initial solution already meets the target
	if s, ok := Speedup(&base, &tr, 40); !ok || !math.IsInf(s, 1) {
		t.Errorf("instant reach should be +Inf speedup, got %v,%v", s, ok)
	}
	// Both at time zero.
	var b2 Trace
	b2.Record(0, 40)
	if s, ok := Speedup(&b2, &tr, 40); !ok || s != 1 {
		t.Errorf("both-zero speedup should be 1, got %v,%v", s, ok)
	}
}

func TestQuickQuantileWithinRange(t *testing.T) {
	f := func(raw []int8, qraw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		q := float64(qraw) / 255
		v := Quantile(xs, q)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
