package trend

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestFitExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x - 7
	}
	l, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(l.Slope, 2.5, 1e-12) || !almost(l.Intercept, -7, 1e-12) {
		t.Errorf("line = %+v, want slope 2.5 intercept -7", l)
	}
	if !almost(l.At(10), 18, 1e-12) {
		t.Errorf("At(10) = %v, want 18", l.At(10))
	}
}

func TestFitterIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var f Fitter
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i) * 5
		ys[i] = 0.0001*xs[i] + 0.003 + rng.NormFloat64()*0.002
		f.Add(xs[i], ys[i])
	}
	batch, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := f.Line()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(batch.Slope, inc.Slope, 1e-12) || !almost(batch.Intercept, inc.Intercept, 1e-9) {
		t.Errorf("incremental %+v vs batch %+v", inc, batch)
	}
}

func TestFitInsufficient(t *testing.T) {
	var f Fitter
	if _, err := f.Line(); err != ErrInsufficient {
		t.Errorf("empty fitter err = %v", err)
	}
	f.Add(1, 1)
	if _, err := f.Line(); err != ErrInsufficient {
		t.Errorf("one-sample fitter err = %v", err)
	}
	// All x identical: vertical line, undetermined.
	var g Fitter
	g.Add(3, 1)
	g.Add(3, 2)
	g.Add(3, 3)
	if _, err := g.Line(); err != ErrInsufficient {
		t.Errorf("degenerate-x fitter err = %v", err)
	}
}

func TestFitMismatchedLengths(t *testing.T) {
	if _, err := Fit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestFitRecoverKnownDrift(t *testing.T) {
	// A clock drifting at 12 ppm sampled every 5 s with ±1 ms jitter:
	// the fitted slope must recover the drift within 2 ppm.
	rng := rand.New(rand.NewSource(7))
	const drift = 12e-6
	var f Fitter
	for i := 0; i < 720; i++ {
		x := float64(i) * 5
		y := drift*x + 0.010 + rng.NormFloat64()*0.001
		f.Add(x, y)
	}
	l, err := f.Line()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(l.Slope, drift, 2e-6) {
		t.Errorf("recovered drift %v, want %v±2ppm", l.Slope, drift)
	}
}

func TestResidualTrackerGate(t *testing.T) {
	r := NewResidualTracker(1e-6)
	// Before any residuals, the gate is the floor.
	if got := r.Gate(); got != 1e-6 {
		t.Errorf("initial gate = %v", got)
	}
	if !r.Admits(1e-7) {
		t.Error("sub-floor error rejected at start")
	}
	// Record uniform small residuals: gate stays near them (plus floor).
	for i := 0; i < 20; i++ {
		r.Accept(4e-6)
	}
	// mean 4e-6, std 0 -> gate 4e-6.
	if got := r.Gate(); !almost(got, 4e-6, 1e-12) {
		t.Errorf("uniform gate = %v, want 4e-6", got)
	}
	if r.Admits(1e-3) {
		t.Error("large outlier admitted")
	}
	if !r.Admits(4e-6) {
		t.Error("typical residual rejected")
	}
}

// Property: the least-squares line passes through the centroid.
func TestQuickLineThroughCentroid(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		var fit Fitter
		var sx, sy float64
		n := 0
		for i := 0; i+1 < len(raw); i += 2 {
			x, y := raw[i], raw[i+1]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) ||
				math.Abs(x) > 1e6 || math.Abs(y) > 1e6 {
				continue
			}
			fit.Add(x, y)
			sx += x
			sy += y
			n++
		}
		l, err := fit.Line()
		if err != nil {
			return true // degenerate inputs are allowed to fail
		}
		cx, cy := sx/float64(n), sy/float64(n)
		return almost(l.At(cx), cy, 1e-6*(1+math.Abs(cy)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: fitting y = a + b·x exactly recovers a and b for any
// reasonable a, b and at least two distinct xs.
func TestQuickExactRecovery(t *testing.T) {
	f := func(aRaw, bRaw int16, n uint8) bool {
		a := float64(aRaw) / 100
		b := float64(bRaw) / 1000
		m := int(n%20) + 2
		var fit Fitter
		for i := 0; i < m; i++ {
			x := float64(i)
			fit.Add(x, a+b*x)
		}
		l, err := fit.Line()
		if err != nil {
			return false
		}
		return almost(l.Slope, b, 1e-9) && almost(l.Intercept, a, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the gate never drops below the floor.
func TestQuickGateFloor(t *testing.T) {
	f := func(res []float64, floorRaw uint16) bool {
		floor := float64(floorRaw) / 1e6
		r := NewResidualTracker(floor)
		for _, s := range res {
			if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
				continue
			}
			r.Accept(s)
		}
		return r.Gate() >= floor
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubtractLineMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	var f Fitter
	for i := range xs {
		xs[i] = float64(i) * 3
		ys[i] = 0.5*xs[i] + 2 + rng.NormFloat64()
		f.Add(xs[i], ys[i])
	}
	const a, b = 1.5, 0.2
	f.SubtractLine(a, b)
	var g Fitter
	for i := range xs {
		g.Add(xs[i], ys[i]-(a+b*xs[i]))
	}
	lf, err1 := f.Line()
	lg, err2 := g.Line()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !almost(lf.Slope, lg.Slope, 1e-9) || !almost(lf.Intercept, lg.Intercept, 1e-9) {
		t.Errorf("SubtractLine %+v vs explicit %+v", lf, lg)
	}
}

func TestSubtractLineFlattensOwnFit(t *testing.T) {
	var f Fitter
	for i := 0; i < 20; i++ {
		x := float64(i)
		f.Add(x, 3*x+7)
	}
	l, _ := f.Line()
	f.SubtractLine(l.Intercept, l.Slope)
	l2, err := f.Line()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(l2.Slope, 0, 1e-9) || !almost(l2.Intercept, 0, 1e-9) {
		t.Errorf("after subtracting own fit: %+v, want zero line", l2)
	}
}
