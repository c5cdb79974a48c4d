// Package metrics provides the statistics the paper's evaluation reports:
// exact percentiles and CDFs of latency samples (Figures 7 and 8, Table 1),
// five-number boxplot summaries (Figures 8 and 9), geometric means (Figure
// 1's multi-workload aggregation), and mean ± confidence intervals.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Samples accumulates observations (any unit; experiments use cycles).
type Samples struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Samples) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddU adds an unsigned integer observation.
func (s *Samples) AddU(x uint64) { s.Add(float64(x)) }

// Merge appends all of o's observations.
func (s *Samples) Merge(o *Samples) {
	s.xs = append(s.xs, o.xs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Samples) N() int { return len(s.xs) }

// Values returns the observations (sorted ascending). The returned slice
// is shared; do not mutate it.
func (s *Samples) Values() []float64 {
	s.sort()
	return s.xs
}

// Scaled returns a new sample set with every observation divided by d.
func (s *Samples) Scaled(d float64) *Samples {
	out := &Samples{xs: make([]float64, 0, len(s.xs))}
	for _, x := range s.xs {
		out.xs = append(out.xs, x/d)
	}
	return out
}

func (s *Samples) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics. Panics on an empty sample set.
func (s *Samples) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		panic("metrics: percentile of empty samples")
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// PercentileOK is Percentile for callers that may hold an empty set (a
// figure cell whose jobs all failed, a condition with no epochs): it
// reports ok=false instead of panicking, so renderers can emit "--".
func (s *Samples) PercentileOK(p float64) (float64, bool) {
	if s == nil || len(s.xs) == 0 {
		return 0, false
	}
	return s.Percentile(p), true
}

// Median returns the 50th percentile.
func (s *Samples) Median() float64 { return s.Percentile(50) }

// MedianOK is Median with the empty set reported, not panicked.
func (s *Samples) MedianOK() (float64, bool) { return s.PercentileOK(50) }

// Min and Max return the extrema.
func (s *Samples) Min() float64 { s.sort(); return s.xs[0] }

// Max returns the largest observation.
func (s *Samples) Max() float64 { s.sort(); return s.xs[len(s.xs)-1] }

// MinOK and MaxOK report the extrema of a possibly-empty set.
func (s *Samples) MinOK() (float64, bool) {
	if s == nil || len(s.xs) == 0 {
		return 0, false
	}
	return s.Min(), true
}

// MaxOK returns the largest observation and whether the set is non-empty.
func (s *Samples) MaxOK() (float64, bool) {
	if s == nil || len(s.xs) == 0 {
		return 0, false
	}
	return s.Max(), true
}

// Mean returns the arithmetic mean.
func (s *Samples) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Stddev returns the sample standard deviation.
func (s *Samples) Stddev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// MeanCI returns the mean and its 95% confidence half-interval (normal
// approximation).
func (s *Samples) MeanCI() (mean, halfCI float64) {
	mean = s.Mean()
	if n := len(s.xs); n > 1 {
		halfCI = 1.96 * s.Stddev() / math.Sqrt(float64(n))
	}
	return mean, halfCI
}

// Sum returns the total of all observations.
func (s *Samples) Sum() float64 {
	var t float64
	for _, x := range s.xs {
		t += x
	}
	return t
}

// Box is the five-number summary plus extrema used by the paper's boxplots.
type Box struct {
	Min, P25, Median, P75, Max float64
	N                          int
}

// Boxplot computes the five-number summary.
func (s *Samples) Boxplot() Box {
	return Box{
		Min:    s.Min(),
		P25:    s.Percentile(25),
		Median: s.Median(),
		P75:    s.Percentile(75),
		Max:    s.Max(),
		N:      s.N(),
	}
}

// String renders the box as "min/p25/med/p75/max".
func (b Box) String() string {
	return fmt.Sprintf("%.3g/%.3g/%.3g/%.3g/%.3g (n=%d)", b.Min, b.P25, b.Median, b.P75, b.Max, b.N)
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X        float64 // value
	Fraction float64 // fraction of samples ≤ X
}

// CDF returns the empirical CDF downsampled to at most points entries
// (always including the extremes).
func (s *Samples) CDF(points int) []CDFPoint {
	s.sort()
	n := len(s.xs)
	if n == 0 {
		return nil
	}
	if points < 2 {
		points = 2
	}
	if points > n {
		points = n
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := i * (n - 1) / (points - 1)
		out = append(out, CDFPoint{X: s.xs[idx], Fraction: float64(idx+1) / float64(n)})
	}
	return out
}

// Geomean returns the geometric mean of xs; zero and negative inputs are
// invalid.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("metrics: geomean of non-positive value %v", x))
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Overhead expresses test relative to baseline as a percentage increase
// (e.g. 1.23 vs 1.00 → 23%).
func Overhead(test, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (test/baseline - 1) * 100
}

// Ratio returns test/baseline, guarding zero baselines.
func Ratio(test, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return test / baseline
}

// Counter is one named tally, the serializable element of a Counters
// snapshot.
type Counter struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Counters is an ordered bag of named uint64 tallies: fault-campaign
// aggregation (injections, violations, recoveries per class) and similar
// event accounting. Names keep first-insertion order so snapshots are
// deterministic without callers sorting.
type Counters struct {
	names []string
	vals  map[string]uint64
}

// Add increases the named counter by n, creating it at zero first.
func (c *Counters) Add(name string, n uint64) {
	if c.vals == nil {
		c.vals = make(map[string]uint64)
	}
	if _, ok := c.vals[name]; !ok {
		c.names = append(c.names, name)
	}
	c.vals[name] += n
}

// Snapshot returns all counters in first-insertion order.
func (c *Counters) Snapshot() []Counter {
	out := make([]Counter, 0, len(c.names))
	for _, n := range c.names {
		out = append(out, Counter{Name: n, Value: c.vals[n]})
	}
	return out
}
