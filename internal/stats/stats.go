// Package stats collects simulation metrics: response-time samples with a
// warm-up cut and summary statistics (mean, percentiles, confidence
// half-widths) used to report the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates scalar observations (e.g. response times in
// milliseconds) taken after a warm-up boundary.
type Sample struct {
	name string
	vals []float64
	// sorted caches an ordered copy of vals for percentile reads. vals is
	// append-only between Resets and sorted is only ever written as a full
	// copy, so "len(sorted) == len(vals)" is a valid freshness tag: any Add
	// since the last sort changes len(vals) and invalidates the cache.
	sorted []float64
	sum    float64
	sum2   float64
}

// NewSample creates an empty named sample.
func NewSample(name string) *Sample { return &Sample{name: name} }

// Name returns the sample's name.
func (s *Sample) Name() string { return s.name }

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
	s.sum2 += v * v
}

// Reset empties the sample in place, keeping the backing arrays for reuse
// (windowed metrics fill and drain one scratch sample per window).
func (s *Sample) Reset() {
	s.vals = s.vals[:0]
	s.sorted = s.sorted[:0]
	s.sum, s.sum2 = 0, 0
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Mean returns the sample mean (0 if empty).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Stddev returns the sample standard deviation (0 if n < 2).
func (s *Sample) Stddev() float64 {
	n := float64(len(s.vals))
	if n < 2 {
		return 0
	}
	v := (s.sum2 - s.sum*s.sum/n) / (n - 1)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank.
// The sorted order is computed once per snapshot and cached until the next
// Add, so reading several percentiles of a settled sample sorts (and
// allocates) at most once. Returns 0 if empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := s.sortedVals()
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// sortedVals returns the cached ordered copy of vals, refreshing it if any
// observation arrived since the last sort.
func (s *Sample) sortedVals() []float64 {
	if len(s.sorted) != len(s.vals) {
		s.sorted = append(s.sorted[:0], s.vals...)
		sort.Float64s(s.sorted)
	}
	return s.sorted
}

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 { return s.Percentile(100) }

// HalfWidth95 returns the approximate 95% confidence-interval half-width of
// the mean, using the normal critical value (valid for the sample sizes the
// harness produces).
func (s *Sample) HalfWidth95() float64 {
	n := float64(len(s.vals))
	if n < 2 {
		return 0
	}
	return 1.96 * s.Stddev() / math.Sqrt(n)
}

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.2f sd=%.2f p95=%.2f", s.name, s.N(), s.Mean(), s.Stddev(), s.Percentile(95))
}
