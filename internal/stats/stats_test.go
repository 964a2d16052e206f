package stats

import (
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
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty moments should be zero")
	}
	if Median(nil) != 0 || RMSE(nil, 5) != 0 || MaxAbs(nil) != 0 {
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
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Quantile(xs, 0.25); got != 17.5 {
		t.Errorf("q25 = %v, want 17.5 (type-7)", got)
	}
	if got := Quantile(xs, 0); got != 10 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 40 {
		t.Errorf("q1 = %v", got)
	}
	got := Quantiles(xs, 0.5, 1)
	if got[0] != 25 || got[1] != 40 {
		t.Errorf("Quantiles = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
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
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.P(cse.x); got != cse.want {
			t.Errorf("P(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if got := c.InverseP(0.5); got != 2 {
		t.Errorf("InverseP(0.5) = %v, want 2", got)
	}
	if got := c.InverseP(1); got != 3 {
		t.Errorf("InverseP(1) = %v, want 3", got)
	}
	xs, ps := c.Points(2)
	if len(xs) != 2 || len(ps) != 2 || ps[1] != 1 {
		t.Errorf("Points = %v %v", xs, ps)
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
	if !almost(o.Variance(), Variance(xs), 1e-9) {
		t.Errorf("online var %v vs batch %v", o.Variance(), Variance(xs))
	}
	if o.Min() != Min(xs) || o.Max() != Max(xs) || o.N() != len(xs) {
		t.Error("online min/max/n mismatch")
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

// Property: the CDF is monotone non-decreasing.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(sample []float64, a, b float64) bool {
		clean := make([]float64, 0, len(sample))
		for _, x := range sample {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c := NewCDF(clean)
		if a > b {
			a, b = b, a
		}
		return c.P(a) <= c.P(b)
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
		v1, v2 := Quantile(xs, q1), Quantile(xs, q2)
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
		if got, want := Quantile(dirty, q), Quantile(clean, q); got != want {
			t.Errorf("Quantile(dirty, %v) = %v, want %v", q, got, want)
		}
	}
	if got := Quantile([]float64{math.NaN(), math.NaN()}, 0.5); got != 0 {
		t.Errorf("all-NaN quantile = %v, want 0", got)
	}
	qs := Quantiles(dirty, 0.5, 0.9)
	if qs[0] != Quantile(clean, 0.5) || qs[1] != Quantile(clean, 0.9) {
		t.Errorf("Quantiles with NaNs = %v", qs)
	}
	// ±Inf stay as extreme order statistics.
	if got := Quantile([]float64{math.Inf(1), 1, 2}, 1); !math.IsInf(got, 1) {
		t.Errorf("max quantile with +Inf = %v", got)
	}
	// NaN q degrades to the median instead of an unspecified index.
	if got := Quantile(clean, math.NaN()); got != 3 {
		t.Errorf("NaN-q quantile = %v, want median 3", got)
	}
}
