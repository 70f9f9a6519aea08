package stats

import (
	"math"
	"testing"
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
