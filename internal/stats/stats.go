// Package stats provides the small statistical toolkit used by the
// experiment harness: the mean, integer histograms, and
// best-cost-versus-time traces with the "time to reach quality x" query
// that the paper's speedup definition needs.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
