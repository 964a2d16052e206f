// Package trend implements the least-squares trend line machinery that
// MNTP (§4.2 of the paper) fits to recorded clock offsets: a first
// degree polynomial fit over (elapsed time, offset) samples, the slope
// of which estimates the clock drift, plus the residual statistics the
// MNTP filter uses to accept or reject newly reported offsets.
//
// Fitting is incremental: adding a sample updates running sums so the
// line is refit in O(1), matching the paper's §5.3 refinement of
// re-estimating the drift with every new accepted sample.
package trend

import (
	"errors"

	"mntp/internal/stats"
)

// ErrInsufficient is returned when a fit is requested with fewer than
// two samples (a line is undetermined).
var ErrInsufficient = errors.New("trend: need at least two samples to fit a line")

// Line is a fitted first-degree polynomial y = Intercept + Slope·x.
type Line struct {
	Slope     float64 // drift estimate: offset seconds per elapsed second
	Intercept float64
}

// At evaluates the line at x — extending the trend line to estimate
// where the next offset sample should fall.
func (l Line) At(x float64) float64 { return l.Intercept + l.Slope*x }

// Fitter accumulates (x, y) samples and maintains the least-squares
// line over them. The zero value is an empty fitter ready for use.
//
// Internally the fit is kept as centered (Welford-style) co-moments —
// running means plus Σ(x−x̄)², Σ(x−x̄)(y−ȳ) and Σ(y−ȳ)². The previous
// raw-sum formulation (n·Σx² − (Σx)²) cancels catastrophically when
// the x values are elapsed seconds hours into an uptime; the centered
// update is immune to the x origin (see the regression test fitting
// identical data at x offsets of 0 and 1e6 s).
type Fitter struct {
	n             int
	mx, my        float64 // running means of x and y
	sxx, sxy, syy float64 // centered co-moments about the means
}

// Add incorporates the sample (x, y) and refits.
func (f *Fitter) Add(x, y float64) {
	f.n++
	n := float64(f.n)
	dx := x - f.mx
	dy := y - f.my
	f.mx += dx / n
	f.my += dy / n
	// dx uses the pre-update mean and (x−mx) the post-update mean:
	// their product telescopes to Σ(x−x̄)² exactly (Welford).
	f.sxx += dx * (x - f.mx)
	f.sxy += dx * (y - f.my)
	f.syy += dy * (y - f.my)
}

// N returns the number of samples added.
func (f *Fitter) N() int { return f.n }

// Line returns the current least-squares line. With fewer than two
// samples, or with all x values identical, it returns ErrInsufficient.
func (f *Fitter) Line() (Line, error) {
	if f.n < 2 {
		return Line{}, ErrInsufficient
	}
	// All-identical x leaves the centered Sxx at exactly 0 (every dx
	// against the running mean is 0); no relative-epsilon dance needed.
	if f.sxx <= 0 {
		return Line{}, ErrInsufficient
	}
	slope := f.sxy / f.sxx
	intercept := f.my - slope*f.mx
	return Line{Slope: slope, Intercept: intercept}, nil
}

// ResidualVariance returns the unbiased residual variance of the fit,
// s² = Σ(yᵢ−ŷᵢ)²/(n−2). It requires at least three samples.
func (f *Fitter) ResidualVariance() (float64, error) {
	if f.n < 3 {
		return 0, ErrInsufficient
	}
	if f.sxx <= 0 {
		return 0, ErrInsufficient
	}
	sse := f.syy - f.sxy*f.sxy/f.sxx
	if sse < 0 {
		sse = 0 // numerical guard
	}
	return sse / float64(f.n-2), nil
}

// PredictVariance returns the variance of a *new* observation's
// deviation from the fitted line at x — the prediction-interval
// variance s²·(1 + 1/n + (x−x̄)²/Sxx). It grows with extrapolation
// distance, so a gate built on it widens appropriately when the next
// sample is far beyond the fitted data (the failure mode §5.3 of the
// paper diagnosed in its first filter version).
func (f *Fitter) PredictVariance(x float64) (float64, error) {
	s2, err := f.ResidualVariance()
	if err != nil {
		return 0, err
	}
	n := float64(f.n)
	return s2 * (1 + 1/n + (x-f.mx)*(x-f.mx)/f.sxx), nil
}

// SlopeVariance returns the sampling variance of the fitted slope,
// Var(b) = s²/Sxx — how trustworthy the drift estimate is. Requires
// at least three samples.
func (f *Fitter) SlopeVariance() (float64, error) {
	s2, err := f.ResidualVariance()
	if err != nil {
		return 0, err
	}
	return s2 / f.sxx, nil
}

// SubtractLine re-expresses every accumulated sample with the linear
// function a + b·x subtracted from its y value: y_i ← y_i − (a + b·x_i).
// MNTP uses this when it physically corrects the clock — a step of s
// subtracts the constant s, and a frequency trim of f applied at
// elapsed time x0 subtracts f·(x − x0) — so the recorded history stays
// expressed against the *corrected* clock and the filter's predictions
// remain valid (see DESIGN.md).
func (f *Fitter) SubtractLine(a, b float64) {
	// In centered form the transform is local: the constant a only
	// shifts the y mean, and the slope b rotates the centered
	// co-moments (ỹᵢ ← ỹᵢ − b·x̃ᵢ).
	f.my -= a + b*f.mx
	f.syy += -2*b*f.sxy + b*b*f.sxx
	f.sxy -= b * f.sxx
	if f.syy < 0 {
		f.syy = 0 // numerical guard
	}
}

// Fit computes the least-squares line for the given samples in one
// call. xs and ys must have equal length ≥ 2.
func Fit(xs, ys []float64) (Line, error) {
	if len(xs) != len(ys) {
		return Line{}, errors.New("trend: mismatched sample lengths")
	}
	var f Fitter
	for i := range xs {
		f.Add(xs[i], ys[i])
	}
	return f.Line()
}

// ResidualTracker maintains the squared prediction errors of accepted
// samples against the evolving trend line, providing the mean ± one
// standard deviation gate of the MNTP filter.
//
// The paper (§4.2): "we find the squared error of each of the reported
// offset with respect to the fitted trend line and then extend the
// trend line to get an estimate of where the next sample should be …
// If the square of that error is one standard deviation above or below
// the mean, then we reject the reported offset."
//
// Implemented as an upper gate (see DESIGN.md note 2): a squared error
// more than one standard deviation above the running mean of squared
// errors is rejected. An absolute floor keeps the gate open while the
// residual history is still degenerate (e.g. the first few samples sit
// exactly on the line, giving zero variance).
type ResidualTracker struct {
	// sq is the running count, mean and M2 (Welford) of the accepted
	// squared errors: an O(1) gate and no history. It may differ from
	// the two-pass value in the last ulp; it is only compared against,
	// and tests hold the Admits decisions fixed (DESIGN.md note 2).
	sq    stats.Online
	floor float64 // minimum gate width in squared units
}

// NewResidualTracker creates a tracker. floor is the minimum tolerated
// squared error (in the same squared units as the offsets).
func NewResidualTracker(floor float64) *ResidualTracker {
	return &ResidualTracker{floor: floor}
}

// Accept records the squared error of a sample that passed the gate.
func (r *ResidualTracker) Accept(sqErr float64) { r.sq.Add(sqErr) }

// N returns the number of recorded residuals.
func (r *ResidualTracker) N() int { return r.sq.N() }

// Gate returns the current rejection threshold for squared errors:
// mean + 1·stddev of the recorded squared errors, but never below the
// configured floor.
func (r *ResidualTracker) Gate() float64 {
	gate := r.sq.Mean() + r.sq.StdDev()
	if gate < r.floor {
		gate = r.floor
	}
	return gate
}

// Admits reports whether a sample with the given squared prediction
// error passes the current gate.
func (r *ResidualTracker) Admits(sqErr float64) bool {
	return sqErr <= r.Gate()
}
