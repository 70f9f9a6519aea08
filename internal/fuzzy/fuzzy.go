// Package fuzzy implements the fuzzy goal-directed evaluation the paper
// uses to combine the three noisy placement objectives (wire length,
// critical path delay, area) into one cost.
//
// Each objective x gets a membership μ(x) ∈ [0,1] describing how well it
// satisfies its goal: 1 at or below the goal value, falling linearly to 0
// at a ceiling. The per-objective memberships are combined with an
// ordered weighted averaging (OWA) "and-like" operator
//
//	μ = β·min(μ₁..μₖ) + (1−β)·mean(μ₁..μₖ)
//
// following the fuzzy simulated-evolution placement formulation of Sait,
// Youssef and Ali that the paper cites as [5]. The search minimizes
// cost = 1 − μ.
package fuzzy

import (
	"fmt"
	"math"
)

// Membership is a decreasing linear membership function for a
// minimization objective: full satisfaction at or below Goal, none at or
// above Ceiling.
type Membership struct {
	Goal    float64
	Ceiling float64
}

// Valid reports whether the function is well formed.
func (m Membership) Valid() error {
	if math.IsNaN(m.Goal) || math.IsNaN(m.Ceiling) {
		return fmt.Errorf("fuzzy: NaN membership bounds")
	}
	if !(m.Ceiling > m.Goal) {
		return fmt.Errorf("fuzzy: ceiling %v must exceed goal %v", m.Ceiling, m.Goal)
	}
	return nil
}

// Eval returns μ(x) ∈ [0,1].
func (m Membership) Eval(x float64) float64 {
	switch {
	case x <= m.Goal:
		return 1
	case x >= m.Ceiling:
		return 0
	default:
		return (m.Ceiling - x) / (m.Ceiling - m.Goal)
	}
}

// OWA is the ordered-weighted-averaging and-like aggregation operator.
// Beta ∈ [0,1] controls how conjunctive it is: 1 is pure min (every goal
// must be met), 0 is pure mean (objectives trade off freely).
type OWA struct {
	Beta float64
}

// Valid reports whether Beta is in range.
func (o OWA) Valid() error {
	if math.IsNaN(o.Beta) || o.Beta < 0 || o.Beta > 1 {
		return fmt.Errorf("fuzzy: OWA beta %v outside [0,1]", o.Beta)
	}
	return nil
}

// Combine aggregates memberships; it returns 0 for an empty list.
func (o OWA) Combine(mu ...float64) float64 {
	if len(mu) == 0 {
		return 0
	}
	min, sum := mu[0], 0.0
	for _, m := range mu {
		if m < min {
			min = m
		}
		sum += m
	}
	return o.Beta*min + (1-o.Beta)*sum/float64(len(mu))
}

// And is the Mamdani conjunction (min), provided for completeness and
// ablation experiments against OWA.
func And(mu ...float64) float64 {
	if len(mu) == 0 {
		return 0
	}
	min := mu[0]
	for _, m := range mu {
		if m < min {
			min = m
		}
	}
	return min
}

// Or is the Mamdani disjunction (max).
func Or(mu ...float64) float64 {
	max := 0.0
	for _, m := range mu {
		if m > max {
			max = m
		}
	}
	return max
}
