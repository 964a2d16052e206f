// Package stats provides the small statistical toolkit used throughout
// the MNTP reproduction: summary statistics, quantiles, empirical CDFs,
// RMSE against a reference, and an online (Welford) accumulator.
// All functions are allocation-conscious and operate on float64
// slices; time series code converts durations to milliseconds at the
// boundary.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (divides by n), or 0
// for an empty slice. The MNTP filter uses population variance,
// matching numpy's default used by the paper's Python prototype.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// MeanStd returns mean and population standard deviation in one pass.
func MeanStd(xs []float64) (mean, std float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	var acc Online
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Mean(), acc.StdDev()
}

// Min returns the minimum of xs. It panics on an empty slice: callers
// establish non-emptiness (the log analyzer needs min OWD per client
// and filters empty clients out first).
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, panicking on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// MaxAbs returns the maximum absolute value in xs, or 0 when empty.
func MaxAbs(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// quantiles returns the qs-th quantiles of xs (0 ≤ q ≤ 1) from a
// single sort, using linear interpolation between order statistics
// (type-7, the numpy default). NaN samples are dropped — a degenerate
// zero-delay exchange can produce one, and sort.Float64s would
// otherwise park it at the front and shift every order statistic. ±Inf
// are kept as legitimate extreme order statistics. Each quantile of an
// empty (or all-NaN) slice is 0. xs is not modified.
func quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	sorted := sortedFinite(xs)
	if len(sorted) == 0 {
		return out
	}
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// sortedFinite returns a sorted copy of xs with NaNs dropped.
func sortedFinite(xs []float64) []float64 {
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	sort.Float64s(sorted)
	return sorted
}

// quantileSorted interpolates an order statistic from a sorted,
// NaN-free, non-empty sample. A NaN q is treated as the median rather
// than producing a platform-dependent index.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if math.IsNaN(q) {
		q = 0.5
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RMSE returns the root mean squared error of xs against a constant
// reference value ref. The MNTP tuner (§5.3) uses ref = 0: the RMSE of
// reported offsets with respect to a perfectly synchronized clock.
func RMSE(xs []float64, ref float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := x - ref
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	xs []float64 // sorted sample
}

// NewCDF builds an empirical CDF from the sample. The input is copied.
func NewCDF(sample []float64) *CDF {
	xs := make([]float64, len(sample))
	copy(xs, sample)
	sort.Float64s(xs)
	return &CDF{xs: xs}
}

// Points returns up to n (x, P[X≤x]) points suitable for plotting. For
// n ≥ len(sample) every sample point is returned.
func (c *CDF) Points(n int) (xs, ps []float64) {
	total := len(c.xs)
	if total == 0 || n <= 0 {
		return nil, nil
	}
	if n > total {
		n = total
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		j := (i+1)*total/n - 1
		xs[i] = c.xs[j]
		ps[i] = float64(j+1) / float64(total)
	}
	return xs, ps
}

// Online is a running accumulator of count, mean and variance using
// Welford's algorithm, plus the maximum. The zero value is ready to use.
type Online struct {
	n        int
	mean, m2 float64
	max      float64
}

// Add incorporates x.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 || x > o.max {
		o.max = x
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// Mean returns the running mean (0 when empty).
func (o *Online) Mean() float64 { return o.mean }

// variance returns the running population variance.
func (o *Online) variance() float64 {
	if o.n == 0 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the running population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.variance()) }

// Max returns the largest sample added (0 when empty).
func (o *Online) Max() float64 { return o.max }

// Summary bundles the usual five-number-plus summary of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	P25, Median, P75 float64
	P90, P95, P99    float64
}

// Summarize computes a Summary of xs. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	mean, std := MeanStd(xs)
	qs := quantiles(xs, 0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1)
	return Summary{
		N: len(xs), Mean: mean, Std: std,
		Min: qs[0], P25: qs[1], Median: qs[2], P75: qs[3],
		P90: qs[4], P95: qs[5], P99: qs[6], Max: qs[7],
	}
}
