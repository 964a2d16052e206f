package trend

import (
	"fmt"
	"sort"
)

// Estimator is the common interface behind MNTP's trend fitting: an
// incremental fit of y = intercept + slope·x over (elapsed, offset)
// samples, plus the variance queries the filter's gate and the drift
// corrector need. Three implementations exist — the paper's
// least-squares Fitter, the robust TheilSen (median of pairwise
// slopes) and LAD (least absolute deviations via IRLS) — and the
// chaos harness bakes them off against each other (see DESIGN.md).
// The interface is also the seam future estimators (e.g. a Kalman
// filter, the ROADMAP's next step) plug into.
type Estimator interface {
	// Add incorporates the sample (x, y) and refits.
	Add(x, y float64)
	// N returns the number of samples currently contributing to the
	// fit (for windowed estimators, the window occupancy).
	N() int
	// Line returns the current fitted line, or errInsufficient when
	// the samples do not determine one.
	Line() (Line, error)
	// ResidualVariance estimates the variance of a sample's deviation
	// from the fitted line (robust estimators return a robust analog,
	// the squared normalized MAD). Requires at least three samples.
	ResidualVariance() (float64, error)
	// PredictVariance returns the prediction-interval variance for a
	// new observation at x: s²·(1 + 1/n + (x−x̄)²/Sxx).
	PredictVariance(x float64) (float64, error)
	// SlopeVariance returns the sampling variance of the fitted slope.
	SlopeVariance() (float64, error)
	// SubtractLine re-expresses every retained sample with a + b·x
	// subtracted from its y value (clock steps and frequency trims).
	SubtractLine(a, b float64)
}

// Kind names an Estimator implementation; it is what flows through
// configuration (core.Params.Estimator, the -estimator flag, the
// tuner's search space).
type Kind string

const (
	// KindLeastSquares is the paper's §4.2 estimator: an unbounded
	// incremental least-squares fit (Fitter).
	KindLeastSquares Kind = "lsq"
	// KindTheilSen is the chrony-style robust estimator: the median
	// of pairwise slopes over a bounded window, with error-driven
	// sample dropping to damp its oscillation failure mode.
	KindTheilSen Kind = "theilsen"
	// KindLAD is least-absolute-deviations regression over the same
	// bounded window, solved by iteratively reweighted least squares.
	KindLAD Kind = "lad"
)

// Kinds returns every implemented estimator, in bake-off order.
func Kinds() []Kind { return []Kind{KindLeastSquares, KindTheilSen, KindLAD} }

// ParseKind resolves a user-supplied estimator name (accepting the
// common spelling variants) to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "lsq", "ls", "least-squares", "leastsquares":
		return KindLeastSquares, nil
	case "theilsen", "theil-sen", "ts":
		return KindTheilSen, nil
	case "lad", "l1":
		return KindLAD, nil
	}
	return "", fmt.Errorf("trend: unknown estimator %q (want lsq, theilsen or lad)", s)
}

// DefaultWindow is the sample window robust estimators fit over when
// the configuration leaves it zero. 32 samples keep the Theil-Sen
// pair enumeration cheap (≤ 496 pairs) while spanning several minutes
// of history at MNTP cadences.
const DefaultWindow = 32

// NewEstimator constructs an estimator of the given kind. window
// bounds the sample history of the robust estimators (≤ 0 selects
// DefaultWindow; least squares is unbounded and ignores it).
// scaleFloor is the smallest residual scale (in y units) the robust
// estimators will reason with: it floors the outlier-dropping
// threshold and the IRLS reweighting denominator so a perfectly
// linear history does not make every subsequent sample look like an
// outlier. An empty or unknown kind falls back to least squares —
// flag-level validation belongs to ParseKind.
func NewEstimator(kind Kind, window int, scaleFloor float64) Estimator {
	if window <= 0 {
		window = DefaultWindow
	}
	if scaleFloor < 0 {
		scaleFloor = 0
	}
	switch kind {
	case KindTheilSen:
		return newTheilSen(window, scaleFloor)
	case KindLAD:
		return newLAD(window, scaleFloor)
	default:
		return &Fitter{}
	}
}

// samples is the bounded (x, y) history shared by the windowed robust
// estimators: append-at-end, drop-oldest-on-overflow.
type samples struct {
	xs, ys []float64
	max    int
}

func newSamples(max int) samples {
	return samples{xs: make([]float64, 0, max), ys: make([]float64, 0, max), max: max}
}

func (s *samples) add(x, y float64) {
	if len(s.xs) >= s.max {
		s.dropOldest(1)
	}
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
}

// dropOldest discards the k oldest samples.
func (s *samples) dropOldest(k int) {
	if k <= 0 {
		return
	}
	if k >= len(s.xs) {
		s.xs = s.xs[:0]
		s.ys = s.ys[:0]
		return
	}
	n := copy(s.xs, s.xs[k:])
	s.xs = s.xs[:n]
	n = copy(s.ys, s.ys[k:])
	s.ys = s.ys[:n]
}

func (s *samples) n() int { return len(s.xs) }

func (s *samples) subtractLine(a, b float64) {
	for i := range s.ys {
		s.ys[i] -= a + b*s.xs[i]
	}
}

// xMoments returns the mean and centered sum of squares of the stored
// x values (for prediction-interval and slope variances).
func (s *samples) xMoments() (mean, sxx float64) {
	n := float64(len(s.xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range s.xs {
		mean += x
	}
	mean /= n
	for _, x := range s.xs {
		d := x - mean
		sxx += d * d
	}
	return mean, sxx
}

// residualScale2 returns the squared robust residual scale of the
// line over the stored samples: (1.4826·median|rᵢ|)², the normalized
// MAD that estimates σ² consistently under Gaussian noise while
// ignoring outliers. floor bounds it from below (in y units).
func (s *samples) residualScale2(l Line, floor float64) float64 {
	abs := make([]float64, len(s.xs))
	for i := range s.xs {
		abs[i] = s.ys[i] - l.At(s.xs[i])
		if abs[i] < 0 {
			abs[i] = -abs[i]
		}
	}
	scale := 1.4826 * median(abs)
	if scale < floor {
		scale = floor
	}
	return scale * scale
}

// median returns the median of xs, sorting in place. Zero when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

var _ Estimator = (*Fitter)(nil)
