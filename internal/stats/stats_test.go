package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty moments should be zero")
	}
	if quantiles(nil, 0.5)[0] != 0 || RMSE(nil, 5) != 0 || MaxAbs(nil) != 0 {
		t.Error("empty median/rmse/maxabs should be zero")
	}
	m, s := MeanStd(nil)
	if m != 0 || s != 0 {
		t.Error("empty MeanStd should be zero")
	}
	if got := Summarize(nil); got.N != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if MaxAbs([]float64{-7, 3}) != 7 {
		t.Error("MaxAbs failed")
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := quantiles([]float64{3, 1, 2}, 0.5)[0]; got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := quantiles([]float64{4, 1, 3, 2}, 0.5)[0]; got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := quantiles(xs, 0.25)[0]; got != 17.5 {
		t.Errorf("q25 = %v, want 17.5 (type-7)", got)
	}
	if got := quantiles(xs, 0)[0]; got != 10 {
		t.Errorf("q0 = %v", got)
	}
	if got := quantiles(xs, 1)[0]; got != 40 {
		t.Errorf("q1 = %v", got)
	}
	got := quantiles(xs, 0.5, 1)
	if got[0] != 25 || got[1] != 40 {
		t.Errorf("Quantiles = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	quantiles(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{3, -4}, 0); !almost(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMSE = %v", got)
	}
	if got := RMSE([]float64{5, 5, 5}, 5); got != 0 {
		t.Errorf("RMSE at ref = %v", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{3, 2, 1, 2})
	xs, ps := c.Points(4)
	if fmt.Sprint(xs, ps) != "[1 2 2 3] [0.25 0.5 0.75 1]" {
		t.Errorf("Points(4) = %v %v", xs, ps)
	}
	xs, ps = c.Points(2)
	if fmt.Sprint(xs, ps) != "[2 3] [0.5 1]" {
		t.Errorf("Points(2) = %v %v", xs, ps)
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var o Online
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		o.Add(xs[i])
	}
	if !almost(o.Mean(), Mean(xs), 1e-9) {
		t.Errorf("online mean %v vs batch %v", o.Mean(), Mean(xs))
	}
	if !almost(o.variance(), Variance(xs), 1e-9) {
		t.Errorf("online var %v vs batch %v", o.variance(), Variance(xs))
	}
	if o.Max() != Max(xs) || o.n != len(xs) {
		t.Error("online max/n mismatch")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Median != 3 || s.Min != 1 || s.Max != 5 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
}

// Property: variance is non-negative and invariant to shifting.
func TestQuickVarianceShiftInvariant(t *testing.T) {
	f := func(raw []float64, shiftRaw int16) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		v := Variance(xs)
		if v < 0 {
			return false
		}
		shift := float64(shiftRaw)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		return almost(Variance(shifted), v, 1e-3*(1+v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the CDF's points are monotone non-decreasing in both x
// and P[X≤x].
func TestQuickCDFMonotone(t *testing.T) {
	f := func(sample []float64, n uint8) bool {
		clean := make([]float64, 0, len(sample))
		for _, x := range sample {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		xs, ps := NewCDF(clean).Points(int(n))
		for i := 1; i < len(xs); i++ {
			if xs[i] < xs[i-1] || ps[i] < ps[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if math.IsNaN(q1) || math.IsNaN(q2) {
			return true
		}
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := quantiles(xs, q1)[0], quantiles(xs, q2)[0]
		return v1 <= v2 && v1 >= Min(xs) && v2 <= Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuantileDropsNaN: NaN samples must not shift the order
// statistics (sort.Float64s parks NaNs at the front).
func TestQuantileDropsNaN(t *testing.T) {
	clean := []float64{1, 2, 3, 4, 5}
	dirty := []float64{math.NaN(), 1, 2, math.NaN(), 3, 4, 5}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got, want := quantiles(dirty, q)[0], quantiles(clean, q)[0]; got != want {
			t.Errorf("Quantile(dirty, %v) = %v, want %v", q, got, want)
		}
	}
	if got := quantiles([]float64{math.NaN(), math.NaN()}, 0.5)[0]; got != 0 {
		t.Errorf("all-NaN quantile = %v, want 0", got)
	}
	qs := quantiles(dirty, 0.5, 0.9)
	if qs[0] != quantiles(clean, 0.5)[0] || qs[1] != quantiles(clean, 0.9)[0] {
		t.Errorf("Quantiles with NaNs = %v", qs)
	}
	// ±Inf stay as extreme order statistics.
	if got := quantiles([]float64{math.Inf(1), 1, 2}, 1)[0]; !math.IsInf(got, 1) {
		t.Errorf("max quantile with +Inf = %v", got)
	}
	// NaN q degrades to the median instead of an unspecified index.
	if got := quantiles(clean, math.NaN())[0]; got != 3 {
		t.Errorf("NaN-q quantile = %v, want median 3", got)
	}
}
