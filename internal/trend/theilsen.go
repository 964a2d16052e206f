// Theil-Sen trend estimation: the slope is the median of the slopes
// of all sample pairs, the intercept the median of the per-sample
// intercepts under that slope. A single asymmetric-delay outlier —
// the failure mode that drags a least-squares fit — moves at most
// (n−1) of the n·(n−1)/2 pairwise slopes, so the median barely moves:
// the estimator has a 29.3% breakdown point.
//
// The known failure mode of a *windowed* Theil-Sen (documented for
// chrony's regression machinery) is oscillation after a regime
// change: when the window straddles a clock step or frequency change,
// the median slope is anchored by the stale majority, every new
// sample looks like an outlier against it, and the fit swings as the
// stale samples age out one per round. The countermeasure implemented
// here is error-driven sample dropping: when several consecutive new
// samples land far outside the fit's robust residual scale, the
// oldest half of the window is discarded so the fit re-anchors on
// recent data at once instead of oscillating through the churn.

package trend

// Dropping parameters: a sample more than dropK robust standard
// deviations off the fit is an outlier; dropStreak consecutive
// outliers are treated as a regime change rather than noise.
const (
	dropK      = 4.0
	dropStreak = 3
)

// TheilSen is a windowed Theil-Sen estimator implementing Estimator.
type TheilSen struct {
	win        samples
	scaleFloor float64

	badStreak int

	// Cached fit, recomputed lazily after mutations.
	dirty   bool
	line    Line
	lineErr error
	scale2  float64 // robust residual variance of the cached fit

	slopes []float64 // scratch for pairwise slopes
}

// newTheilSen creates a Theil-Sen estimator over a window of at most
// `window` samples. scaleFloor (y units) floors the residual scale
// used by the outlier-dropping rule — see NewEstimator.
func newTheilSen(window int, scaleFloor float64) *TheilSen {
	return &TheilSen{
		win:        newSamples(window),
		scaleFloor: scaleFloor,
		dirty:      true,
		slopes:     make([]float64, 0, window*(window-1)/2),
	}
}

// Add incorporates the sample, applying the error-driven dropping
// rule first: a streak of dropStreak samples beyond dropK robust
// standard deviations of the current fit discards the oldest half of
// the window (the stale regime) before the new sample lands.
func (t *TheilSen) Add(x, y float64) {
	if line, err := t.fit(); err == nil {
		s2 := t.scale2
		if s2 > 0 {
			r := y - line.At(x)
			if r*r > dropK*dropK*s2 {
				t.badStreak++
				if t.badStreak >= dropStreak {
					t.win.dropOldest(t.win.n() / 2)
					t.badStreak = 0
				}
			} else {
				t.badStreak = 0
			}
		}
	}
	t.win.add(x, y)
	t.dirty = true
}

// N returns the window occupancy.
func (t *TheilSen) N() int { return t.win.n() }

// Line returns the current Theil-Sen line.
func (t *TheilSen) Line() (Line, error) { return t.fit() }

// fit returns the cached line, recomputing it when stale.
func (t *TheilSen) fit() (Line, error) {
	if !t.dirty {
		return t.line, t.lineErr
	}
	t.dirty = false
	n := t.win.n()
	if n < 2 {
		t.line, t.lineErr = Line{}, errInsufficient
		return t.line, t.lineErr
	}
	t.slopes = t.slopes[:0]
	xs, ys := t.win.xs, t.win.ys
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dx := xs[j] - xs[i]; dx != 0 {
				t.slopes = append(t.slopes, (ys[j]-ys[i])/dx)
			}
		}
	}
	if len(t.slopes) == 0 {
		// All x identical: vertical data, undetermined.
		t.line, t.lineErr = Line{}, errInsufficient
		return t.line, t.lineErr
	}
	slope := median(t.slopes)
	// Intercept: median of yᵢ − slope·xᵢ, reusing the scratch slice.
	ints := t.slopes[:0]
	for i := 0; i < n; i++ {
		ints = append(ints, ys[i]-slope*xs[i])
	}
	t.line = Line{Slope: slope, Intercept: median(ints)}
	t.lineErr = nil
	t.scale2 = t.win.residualScale2(t.line, t.scaleFloor)
	return t.line, nil
}

// ResidualVariance returns the squared normalized MAD of the fit's
// residuals — the robust analog of least squares' s². Requires at
// least three samples.
func (t *TheilSen) ResidualVariance() (float64, error) {
	if t.win.n() < 3 {
		return 0, errInsufficient
	}
	if _, err := t.fit(); err != nil {
		return 0, err
	}
	return t.scale2, nil
}

// PredictVariance returns the prediction-interval variance at x,
// s²·(1 + 1/n + (x−x̄)²/Sxx), with the robust s².
func (t *TheilSen) PredictVariance(x float64) (float64, error) {
	s2, err := t.ResidualVariance()
	if err != nil {
		return 0, err
	}
	xbar, sxx := t.win.xMoments()
	if sxx <= 0 {
		return 0, errInsufficient
	}
	n := float64(t.win.n())
	return s2 * (1 + 1/n + (x-xbar)*(x-xbar)/sxx), nil
}

// SlopeVariance returns the robust analog of the slope's sampling
// variance, s²/Sxx.
func (t *TheilSen) SlopeVariance() (float64, error) {
	s2, err := t.ResidualVariance()
	if err != nil {
		return 0, err
	}
	_, sxx := t.win.xMoments()
	if sxx <= 0 {
		return 0, errInsufficient
	}
	return s2 / sxx, nil
}

// SubtractLine re-expresses the retained samples against a corrected
// clock: yᵢ ← yᵢ − (a + b·xᵢ).
func (t *TheilSen) SubtractLine(a, b float64) {
	t.win.subtractLine(a, b)
	t.dirty = true
}

var _ Estimator = (*TheilSen)(nil)
