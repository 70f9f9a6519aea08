package stats

import "math"

// TracePoint is one observation of the incumbent best cost at a time.
type TracePoint struct {
	Time float64 // seconds (virtual or wall) since the run started
	Cost float64 // best cost known at Time
}

// Trace records the evolution of the best cost over a run. Points must be
// appended in nondecreasing time order; cost is expected to be
// nonincreasing but this is not enforced (the paper's plots use the raw
// incumbent).
type Trace struct {
	Points []TracePoint
}

// Record appends an observation. Observations that do not improve on the
// current best are still recorded so that time-axis resolution is kept.
func (t *Trace) Record(time, cost float64) {
	t.Points = append(t.Points, TracePoint{Time: time, Cost: cost})
}

// Len returns the number of recorded points.
func (t *Trace) Len() int { return len(t.Points) }

// Final returns the last recorded cost, or NaN for an empty trace.
func (t *Trace) Final() float64 {
	if len(t.Points) == 0 {
		return math.NaN()
	}
	return t.Points[len(t.Points)-1].Cost
}

// BestCost returns the minimum cost recorded, or NaN for an empty trace.
func (t *Trace) BestCost() float64 {
	if len(t.Points) == 0 {
		return math.NaN()
	}
	best := t.Points[0].Cost
	for _, p := range t.Points[1:] {
		if p.Cost < best {
			best = p.Cost
		}
	}
	return best
}

// End returns the time of the last recorded point, or 0 for an empty
// trace.
func (t *Trace) End() float64 {
	if len(t.Points) == 0 {
		return 0
	}
	return t.Points[len(t.Points)-1].Time
}

// TimeToReach returns the earliest recorded time at which the cost was <=
// x, implementing the t(n,x) term of the paper's speedup definition.
// The second return value is false if the trace never reaches x.
func (t *Trace) TimeToReach(x float64) (float64, bool) {
	for _, p := range t.Points {
		if p.Cost <= x {
			return p.Time, true
		}
	}
	return 0, false
}

// Speedup computes the paper's speedup definition
//
//	speedup(n, x) = t(1, x) / t(n, x)
//
// given the single-worker trace base and the n-worker trace tr, for
// quality target x. If tr never reaches x, the ratio uses tr's end time
// and reached=false, yielding a conservative lower bound on the speedup.
func Speedup(base, tr *Trace, x float64) (speedup float64, reached bool) {
	t1, ok1 := base.TimeToReach(x)
	if !ok1 {
		return math.NaN(), false
	}
	tn, okn := tr.TimeToReach(x)
	if !okn {
		end := tr.End()
		if end <= 0 {
			return math.NaN(), false
		}
		return t1 / end, false
	}
	if tn <= 0 {
		// Reached at time zero (initial solution already meets x): define
		// speedup against the base time directly to avoid division by zero.
		if t1 <= 0 {
			return 1, true
		}
		return math.Inf(1), true
	}
	return t1 / tn, true
}
