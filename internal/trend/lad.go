// Least-absolute-deviations (L1) trend estimation over a bounded
// window, solved by iteratively reweighted least squares (IRLS):
// minimizing Σ|rᵢ| is a weighted least-squares problem with weights
// wᵢ = 1/|rᵢ|, so the fit alternates between solving the weighted
// normal equations and recomputing the weights from the residuals.
// Like Theil-Sen, the L1 objective caps any one sample's influence at
// its sign — the asymmetric-delay spike that drags an L2 fit by its
// squared residual moves an L1 fit hardly at all — but it degrades
// more gracefully when nearly half the window is contaminated.

package trend

import "math"

// IRLS parameters: the iteration stops when the slope and intercept
// both move by less than ladTol (relative), or after ladMaxIter
// rounds — IRLS for L1 converges linearly, and a trend refit runs on
// every accepted sample, so a handful of iterations suffices.
const (
	ladMaxIter = 12
	ladTol     = 1e-9
)

// LAD is a windowed least-absolute-deviations estimator implementing
// Estimator.
type LAD struct {
	win        samples
	scaleFloor float64

	dirty   bool
	line    Line
	lineErr error
	scale2  float64
}

// newLAD creates a LAD estimator over a window of at most `window`
// samples. scaleFloor (y units) bounds the IRLS reweighting
// denominator — without it a sample the fit interpolates exactly
// would receive infinite weight — and floors the reported residual
// scale; see NewEstimator.
func newLAD(window int, scaleFloor float64) *LAD {
	return &LAD{win: newSamples(window), scaleFloor: scaleFloor, dirty: true}
}

// Add incorporates the sample (x, y) and invalidates the cached fit.
func (l *LAD) Add(x, y float64) {
	l.win.add(x, y)
	l.dirty = true
}

// N returns the window occupancy.
func (l *LAD) N() int { return l.win.n() }

// Line returns the current LAD line.
func (l *LAD) Line() (Line, error) { return l.fit() }

func (l *LAD) fit() (Line, error) {
	if !l.dirty {
		return l.line, l.lineErr
	}
	l.dirty = false
	n := l.win.n()
	xs, ys := l.win.xs, l.win.ys
	if n < 2 {
		l.line, l.lineErr = Line{}, errInsufficient
		return l.line, l.lineErr
	}

	// Start from the unweighted least-squares fit.
	cur, ok := weightedLS(xs, ys, nil)
	if !ok {
		l.line, l.lineErr = Line{}, errInsufficient
		return l.line, l.lineErr
	}
	// delta floors |rᵢ| in the weights; tie it to the configured
	// scale floor so "exactly on the line" means "within the noise
	// floor", not "within float64 epsilon".
	delta := l.scaleFloor
	if delta <= 0 {
		delta = 1e-12
	}
	w := make([]float64, n)
	for iter := 0; iter < ladMaxIter; iter++ {
		for i := range w {
			r := ys[i] - cur.At(xs[i])
			if r < 0 {
				r = -r
			}
			if r < delta {
				r = delta
			}
			w[i] = 1 / r
		}
		next, ok := weightedLS(xs, ys, w)
		if !ok {
			break // degenerate reweighting; keep the last good fit
		}
		ds := math.Abs(next.Slope - cur.Slope)
		di := math.Abs(next.Intercept - cur.Intercept)
		cur = next
		if ds <= ladTol*(1+math.Abs(cur.Slope)) && di <= ladTol*(1+math.Abs(cur.Intercept)) {
			break
		}
	}
	l.line, l.lineErr = cur, nil
	l.scale2 = l.win.residualScale2(cur, l.scaleFloor)
	return l.line, nil
}

// weightedLS solves the weighted least-squares line in centered form
// (the same cancellation-free formulation as Fitter). A nil weight
// slice means uniform weights. ok is false when the weighted x spread
// is degenerate.
func weightedLS(xs, ys, w []float64) (Line, bool) {
	var sw, swx, swy float64
	for i := range xs {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		sw += wi
		swx += wi * xs[i]
		swy += wi * ys[i]
	}
	if sw <= 0 {
		return Line{}, false
	}
	xbar, ybar := swx/sw, swy/sw
	var sxx, sxy float64
	for i := range xs {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		dx := xs[i] - xbar
		sxx += wi * dx * dx
		sxy += wi * dx * (ys[i] - ybar)
	}
	if sxx <= 0 {
		return Line{}, false
	}
	slope := sxy / sxx
	return Line{Slope: slope, Intercept: ybar - slope*xbar}, true
}

// ResidualVariance returns the squared normalized MAD of the fit's
// residuals. Requires at least three samples.
func (l *LAD) ResidualVariance() (float64, error) {
	if l.win.n() < 3 {
		return 0, errInsufficient
	}
	if _, err := l.fit(); err != nil {
		return 0, err
	}
	return l.scale2, nil
}

// PredictVariance returns the prediction-interval variance at x with
// the robust s².
func (l *LAD) PredictVariance(x float64) (float64, error) {
	s2, err := l.ResidualVariance()
	if err != nil {
		return 0, err
	}
	xbar, sxx := l.win.xMoments()
	if sxx <= 0 {
		return 0, errInsufficient
	}
	n := float64(l.win.n())
	return s2 * (1 + 1/n + (x-xbar)*(x-xbar)/sxx), nil
}

// SlopeVariance returns the robust analog of the slope's sampling
// variance, s²/Sxx.
func (l *LAD) SlopeVariance() (float64, error) {
	s2, err := l.ResidualVariance()
	if err != nil {
		return 0, err
	}
	_, sxx := l.win.xMoments()
	if sxx <= 0 {
		return 0, errInsufficient
	}
	return s2 / sxx, nil
}

// SubtractLine re-expresses the retained samples against a corrected
// clock: yᵢ ← yᵢ − (a + b·xᵢ).
func (l *LAD) SubtractLine(a, b float64) {
	l.win.subtractLine(a, b)
	l.dirty = true
}

var _ Estimator = (*LAD)(nil)
