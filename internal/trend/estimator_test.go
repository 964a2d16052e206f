package trend

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestFitterTranslationInvariance is the regression test for the
// centered-update bugfix: identical data fitted at x origins 0 and
// 1e6 s (hours of uptime expressed as elapsed seconds) must produce
// the same slope and residual variance. The previous raw-sum
// formulation lost ~all significant digits of n·Σx² − (Σx)² at the
// shifted origin.
func TestFitterTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 300
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) * 5
		ys[i] = 30e-6*xs[i] + 0.004 + rng.NormFloat64()*0.002
	}
	var at0, at1e6 Fitter
	const shift = 1e6
	for i := range xs {
		at0.Add(xs[i], ys[i])
		at1e6.Add(xs[i]+shift, ys[i])
	}
	l0, err0 := at0.Line()
	l1, err1 := at1e6.Line()
	if err0 != nil || err1 != nil {
		t.Fatal(err0, err1)
	}
	if !almost(l0.Slope, l1.Slope, 1e-9) {
		t.Errorf("slope at origin 0 = %v, at origin 1e6 = %v (diff %g)",
			l0.Slope, l1.Slope, math.Abs(l0.Slope-l1.Slope))
	}
	v0, err0 := at0.ResidualVariance()
	v1, err1 := at1e6.ResidualVariance()
	if err0 != nil || err1 != nil {
		t.Fatal(err0, err1)
	}
	if !almost(v0, v1, 1e-9) {
		t.Errorf("residual variance at origin 0 = %v, at origin 1e6 = %v", v0, v1)
	}
	// The predicted line must agree at corresponding points.
	if !almost(l0.At(1500), l1.At(1500+shift), 1e-9) {
		t.Errorf("prediction at x=1500: %v vs %v", l0.At(1500), l1.At(1500+shift))
	}
	pv0, _ := at0.PredictVariance(1500)
	pv1, _ := at1e6.PredictVariance(1500 + shift)
	if !almost(pv0, pv1, 1e-9) {
		t.Errorf("prediction variance: %v vs %v", pv0, pv1)
	}
}

func TestParseKind(t *testing.T) {
	for in, want := range map[string]Kind{
		"":          KindLeastSquares,
		"lsq":       KindLeastSquares,
		"theilsen":  KindTheilSen,
		"theil-sen": KindTheilSen,
		"lad":       KindLAD,
		"l1":        KindLAD,
	} {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("kalman"); err == nil {
		t.Error("unknown kind accepted")
	}
}

// everyEstimator runs the subtest under each implementation.
func everyEstimator(t *testing.T, f func(t *testing.T, kind Kind, est Estimator)) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			f(t, kind, NewEstimator(kind, 64, 1e-4))
		})
	}
}

// TestEstimatorsRecoverCleanLine: on outlier-free noisy data every
// estimator recovers the generating slope and intercept.
func TestEstimatorsRecoverCleanLine(t *testing.T) {
	everyEstimator(t, func(t *testing.T, kind Kind, est Estimator) {
		rng := rand.New(rand.NewSource(5))
		const slope, intercept = 40e-6, 0.012
		for i := 0; i < 60; i++ {
			x := float64(i) * 10
			est.Add(x, slope*x+intercept+rng.NormFloat64()*0.001)
		}
		l, err := est.Line()
		if err != nil {
			t.Fatal(err)
		}
		if !almost(l.Slope, slope, 10e-6) {
			t.Errorf("slope = %v, want %v±10ppm", l.Slope, slope)
		}
		if !almost(l.Intercept, intercept, 0.002) {
			t.Errorf("intercept = %v, want %v", l.Intercept, intercept)
		}
		if _, err := est.ResidualVariance(); err != nil {
			t.Errorf("ResidualVariance: %v", err)
		}
		if pv, err := est.PredictVariance(600); err != nil || pv <= 0 {
			t.Errorf("PredictVariance = %v, %v", pv, err)
		}
		if sv, err := est.SlopeVariance(); err != nil || sv <= 0 {
			t.Errorf("SlopeVariance = %v, %v", sv, err)
		}
	})
}

// TestEstimatorsInsufficient: degenerate inputs report errInsufficient
// uniformly.
func TestEstimatorsInsufficient(t *testing.T) {
	everyEstimator(t, func(t *testing.T, kind Kind, est Estimator) {
		if _, err := est.Line(); err != errInsufficient {
			t.Errorf("empty Line err = %v", err)
		}
		est.Add(3, 1)
		if _, err := est.Line(); err != errInsufficient {
			t.Errorf("one-sample Line err = %v", err)
		}
		est.Add(3, 2)
		est.Add(3, 3)
		if _, err := est.Line(); err != errInsufficient {
			t.Errorf("identical-x Line err = %v", err)
		}
		if _, err := est.PredictVariance(5); err != errInsufficient {
			t.Errorf("identical-x PredictVariance err = %v", err)
		}
	})
}

// TestRobustEstimatorsShrugOffOutliers: a least-squares fit is visibly
// dragged by a 20% contamination of +200 ms asymmetric-delay spikes;
// Theil-Sen and LAD must stay within a few ppm of the true drift.
func TestRobustEstimatorsShrugOffOutliers(t *testing.T) {
	const slope = 20e-6
	feed := func(est Estimator) {
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 50; i++ {
			x := float64(i) * 10
			y := slope*x + rng.NormFloat64()*0.0005
			if i%5 == 4 {
				y -= 0.200 // asymmetric uplink spike biases the offset low
			}
			est.Add(x, y)
		}
	}
	var ls Fitter
	feed(&ls)
	lsLine, err := ls.Line()
	if err != nil {
		t.Fatal(err)
	}
	lsErr := math.Abs(lsLine.Slope - slope)

	for _, kind := range []Kind{KindTheilSen, KindLAD} {
		est := NewEstimator(kind, 64, 1e-4)
		feed(est)
		l, err := est.Line()
		if err != nil {
			t.Fatal(kind, err)
		}
		robErr := math.Abs(l.Slope - slope)
		if robErr > 5e-6 {
			t.Errorf("%s slope = %v, want %v±5ppm under contamination", kind, l.Slope, slope)
		}
		if robErr*2 > lsErr {
			t.Errorf("%s slope error %v not clearly better than least-squares %v", kind, robErr, lsErr)
		}
	}
}

// TestEstimatorsSubtractLine: SubtractLine must re-express history for
// every implementation the way an explicit rebuild would.
func TestEstimatorsSubtractLine(t *testing.T) {
	everyEstimator(t, func(t *testing.T, kind Kind, est Estimator) {
		rng := rand.New(rand.NewSource(23))
		xs := make([]float64, 40)
		ys := make([]float64, 40)
		for i := range xs {
			xs[i] = float64(i) * 7
			ys[i] = 0.3*xs[i] + 2 + rng.NormFloat64()*0.1
			est.Add(xs[i], ys[i])
		}
		const a, b = 1.25, 0.05
		est.SubtractLine(a, b)
		ref := NewEstimator(kind, 64, 1e-4)
		for i := range xs {
			ref.Add(xs[i], ys[i]-(a+b*xs[i]))
		}
		got, err1 := est.Line()
		want, err2 := ref.Line()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !almost(got.Slope, want.Slope, 1e-9) || !almost(got.Intercept, want.Intercept, 1e-8) {
			t.Errorf("SubtractLine %+v vs rebuilt %+v", got, want)
		}
	})
}

// TestTheilSenWindowBound: the window drops the oldest samples.
func TestTheilSenWindowBound(t *testing.T) {
	est := newTheilSen(8, 0)
	for i := 0; i < 20; i++ {
		est.Add(float64(i), float64(i)*2)
	}
	if est.N() != 8 {
		t.Errorf("window occupancy = %d, want 8", est.N())
	}
	l, err := est.Line()
	if err != nil || !almost(l.Slope, 2, 1e-12) {
		t.Errorf("windowed fit = %+v, %v", l, err)
	}
}

// TestTheilSenRegimeChangeDropsStale: after a step change in the data
// the error-driven dropping must re-anchor the fit on the new regime
// within a few samples, instead of oscillating while the stale
// majority ages out one sample at a time.
func TestTheilSenRegimeChangeDropsStale(t *testing.T) {
	est := newTheilSen(32, 1e-4)
	rng := rand.New(rand.NewSource(31))
	x := 0.0
	for i := 0; i < 32; i++ { // old regime: flat at 0
		est.Add(x, rng.NormFloat64()*0.0002)
		x += 10
	}
	before := est.N()
	for i := 0; i < dropStreak; i++ { // new regime: flat at 50 ms
		est.Add(x, 0.050+rng.NormFloat64()*0.0002)
		x += 10
	}
	if est.N() >= before+dropStreak {
		t.Fatalf("no samples dropped after %d-outlier streak (N=%d)", dropStreak, est.N())
	}
	// A few more new-regime samples: the fit must now track 50 ms.
	for i := 0; i < 8; i++ {
		est.Add(x, 0.050+rng.NormFloat64()*0.0002)
		x += 10
	}
	l, err := est.Line()
	if err != nil {
		t.Fatal(err)
	}
	if got := l.At(x); math.Abs(got-0.050) > 0.010 {
		t.Errorf("post-regime-change prediction = %v, want ~0.050", got)
	}
}

// TestLADExactOnCleanLine: on perfectly linear data the IRLS must
// return the exact line (the LS initialization already solves it).
func TestLADExactOnCleanLine(t *testing.T) {
	est := newLAD(32, 1e-6)
	for i := 0; i < 10; i++ {
		x := float64(i)
		est.Add(x, 3*x-1)
	}
	l, err := est.Line()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(l.Slope, 3, 1e-9) || !almost(l.Intercept, -1, 1e-9) {
		t.Errorf("LAD on exact line = %+v", l)
	}
}

// TestNewEstimatorDefaults: the factory falls back to least squares
// on empty/unknown kinds and applies the default window.
func TestNewEstimatorDefaults(t *testing.T) {
	if _, ok := NewEstimator("", 0, 0).(*Fitter); !ok {
		t.Error("empty kind did not fall back to Fitter")
	}
	if _, ok := NewEstimator("nonsense", 0, 0).(*Fitter); !ok {
		t.Error("unknown kind did not fall back to Fitter")
	}
	ts, ok := NewEstimator(KindTheilSen, 0, 0).(*TheilSen)
	if !ok {
		t.Fatal("KindTheilSen did not build a TheilSen")
	}
	if ts.win.max != DefaultWindow {
		t.Errorf("default window = %d, want %d", ts.win.max, DefaultWindow)
	}
	if _, ok := NewEstimator(KindLAD, 16, 0).(*LAD); !ok {
		t.Error("KindLAD did not build a LAD")
	}
}

// BenchmarkEstimatorAddFit is the package-local microbenchmark of a
// steady-state Add+Line round (the root-level BenchmarkEstimatorFit
// sweeps window sizes for the CI smoke leg).
func BenchmarkEstimatorAddFit(b *testing.B) {
	for _, kind := range Kinds() {
		b.Run(fmt.Sprintf("%s", kind), func(b *testing.B) {
			est := NewEstimator(kind, 32, 1e-4)
			rng := rand.New(rand.NewSource(1))
			x := 0.0
			for i := 0; i < 32; i++ {
				est.Add(x, 1e-5*x+rng.NormFloat64()*0.001)
				x += 10
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est.Add(x, 1e-5*x+rng.NormFloat64()*0.001)
				x += 10
				if _, err := est.Line(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
