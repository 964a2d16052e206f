package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics, NaN for an empty slice. xs
// is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// undisturbed reduces repeated readings of one quantity within a run to
// the value an undisturbed host gives. The shared box slows down for
// seconds or minutes at a time, which only ever makes a reading worse,
// never better: the readings are a tight floor plus a tail on the worse
// side. The 5th percentile from the better side (the low end of a time
// or cost, the high end of a rate) sits in the floor as long as a
// twentieth of the run was undisturbed, where the median moves as soon
// as half was not; and unlike the single best reading it does not rest
// on one sample once there are twenty. (On the builder's box, over a
// set of ten runs that a slow spell crossed, the run-to-run spread of
// the 90th-percentile latency was 26 % with the quartile, 16 % with
// the decile, 9 % with this and 5 % with the minimum; over undisturbed
// sets all four gave 1–5 %.)
func undisturbed(xs []float64, better string) float64 {
	if better == "higher" {
		return quantile(xs, 0.95)
	}
	return quantile(xs, 0.05)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// iqrShare is the run-to-run spread the benchmark contract uses: the
// distance between the first and third quartile as a share of the
// median, with the quartiles of Python's statistics.quantiles(n=4)
// (the exclusive method: position (n+1)·k/4 in the sorted sample).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(len(s)+1)*float64(k)/4 - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := median(s)
	if med == 0 {
		return math.Inf(1)
	}
	return (at(3) - at(1)) / math.Abs(med)
}
