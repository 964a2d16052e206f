// Package core implements MNTP — Mobile NTP — the contribution of the
// paper (§4): a lightweight modification of SNTP for mobile devices
// that (1) paces synchronization requests using wireless link-layer
// hints, emitting them only when the channel is favorable, and (2)
// filters reported clock offsets against a least-squares drift trend
// line, rejecting outliers whose squared prediction error exceeds the
// running mean by more than one standard deviation.
//
// The package separates the pure filtering pipeline (Filter), which
// the trace-driven tuner replays offline, from the live client
// (Client), which runs Algorithm 1 over any transport and hint
// provider.
package core

import (
	"math"
	"time"

	"mntp/internal/exchange"
	"mntp/internal/stats"
	"mntp/internal/trend"
)

// Filter is MNTP's offset-filtering state: a trend line over accepted
// (elapsed, offset) samples and the residual gate. Per the paper's
// §5.3 refinement, the drift estimate is refit with every accepted
// sample. The trend estimator is pluggable (Params.Estimator): the
// paper's least-squares fit, or the robust Theil-Sen/LAD alternatives
// the chaos harness bakes off (see internal/trend and DESIGN.md).
type Filter struct {
	est       trend.Estimator
	residuals *trend.ResidualTracker
	// minSamples is how many samples are accepted unconditionally
	// before the gate engages (a line needs ≥ 2 points; the paper
	// records 10 warm-up offsets before trusting the trend).
	minSamples int
	// floor is the minimum tolerated absolute prediction error in
	// seconds.
	floor float64
	// varFallbacks counts gate decisions taken under the bounded
	// default gate because the estimator could not produce a
	// prediction variance (persistent trend.ErrInsufficient, e.g.
	// all-identical elapsed times after a suspend). Previously that
	// failure was swallowed and the residual gate ran unguarded.
	varFallbacks int
}

// fallbackGateMult sizes the bounded default gate used when the
// estimator cannot produce a prediction variance: |error| ≤ 3·floor,
// mirroring the 3σ+floor bound of the variance-informed second-chance
// gate with σ collapsed to the floor.
const fallbackGateMult = 3

// NewFilter creates a filter around the paper's least-squares
// estimator. floor is the minimum tolerated prediction error (the
// gate never rejects samples within ±floor of the trend line);
// minSamples is the number of initial samples accepted
// unconditionally (default 3 when ≤ 0).
func NewFilter(floor time.Duration, minSamples int) *Filter {
	return NewFilterKind(trend.KindLeastSquares, 0, floor, minSamples)
}

// NewFilterKind creates a filter around the given trend estimator.
// window bounds the robust estimators' sample history (≤ 0 selects
// trend.DefaultWindow; least squares ignores it). The floor doubles
// as the robust estimators' residual scale floor.
func NewFilterKind(kind trend.Kind, window int, floor time.Duration, minSamples int) *Filter {
	if minSamples <= 0 {
		minSamples = 3
	}
	f := floor.Seconds()
	return &Filter{
		est:        trend.NewEstimator(kind, window, f),
		residuals:  trend.NewResidualTracker(f * f),
		minSamples: minSamples,
		floor:      f,
	}
}

// N returns the number of samples contributing to the trend (for
// windowed estimators, the window occupancy).
func (f *Filter) N() int { return f.est.N() }

// VarianceFallbacks returns how many gate decisions were taken under
// the bounded default gate because the estimator had no prediction
// variance to offer.
func (f *Filter) VarianceFallbacks() int { return f.varFallbacks }

// Offer presents a sample at the given elapsed time. It returns
// whether the sample was accepted (and absorbed into the trend) and
// the trend line's prediction for that instant (valid only when
// predOK).
func (f *Filter) Offer(elapsed time.Duration, offset time.Duration) (accepted bool, predicted time.Duration, predOK bool) {
	x := elapsed.Seconds()
	y := offset.Seconds()

	line, err := f.est.Line()
	if err != nil || f.est.N() < f.minSamples {
		// Not enough history to predict: accept unconditionally.
		f.est.Add(x, y)
		if err == nil {
			pred := line.At(x)
			e := y - pred
			f.residuals.Accept(e * e)
			return true, secToDur(pred), true
		}
		return true, 0, false
	}

	pred := line.At(x)
	e := y - pred
	sq := e * e
	admit := f.residuals.Admits(sq)
	if !admit {
		// Second chance via the regression prediction interval: the
		// gate widens with the fit's own uncertainty at x, so a
		// sparse regular phase extrapolating far beyond the warm-up
		// data does not reject everything — the over-conservative
		// failure mode the paper diagnosed in §5.3.
		var bound float64
		if pv, err := f.est.PredictVariance(x); err == nil {
			bound = 3*math.Sqrt(pv) + f.floor
		} else {
			// The estimator has no variance to offer (persistent
			// trend.ErrInsufficient — e.g. every sample at the same
			// elapsed time after a suspend). Fall back to an explicit
			// bounded default gate instead of silently skipping the
			// second chance, and count the fallback so the condition
			// is observable (CycleStats.GateFallbacks).
			bound = fallbackGateMult * f.floor
			f.varFallbacks++
		}
		if e <= bound && e >= -bound {
			admit = true
		}
	}
	if !admit {
		return false, secToDur(pred), true
	}
	f.est.Add(x, y)
	f.residuals.Accept(sq)
	return true, secToDur(pred), true
}

// Drift returns the current drift estimate (the trend line slope, in
// seconds of offset per second of elapsed time) and whether enough
// samples exist to estimate it.
func (f *Filter) Drift() (float64, bool) {
	line, err := f.est.Line()
	if err != nil {
		return 0, false
	}
	return line.Slope, true
}

// DriftWithError returns the drift estimate together with its
// standard error (both in seconds per second).
func (f *Filter) DriftWithError() (drift, stdErr float64, ok bool) {
	line, err := f.est.Line()
	if err != nil {
		return 0, 0, false
	}
	v, err := f.est.SlopeVariance()
	if err != nil {
		return 0, 0, false
	}
	return line.Slope, math.Sqrt(v), true
}

// Predict returns the trend line's offset prediction at the given
// elapsed time.
func (f *Filter) Predict(elapsed time.Duration) (time.Duration, bool) {
	line, err := f.est.Line()
	if err != nil {
		return 0, false
	}
	return secToDur(line.At(elapsed.Seconds())), true
}

// ApplyStep re-expresses the accepted history against a clock that
// was just stepped by step: all recorded offsets shrink by step.
func (f *Filter) ApplyStep(step time.Duration) {
	f.est.SubtractLine(step.Seconds(), 0)
}

// ApplyFreq re-expresses the history against a clock whose frequency
// was just trimmed by df (seconds per second) at elapsed time x0: the
// recorded trend loses the component df·(x − x0).
func (f *Filter) ApplyFreq(df float64, x0 time.Duration) {
	x := x0.Seconds()
	f.est.SubtractLine(-df*x, df)
}

func secToDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// RejectFalseTickers implements the warm-up multi-source screen of
// §4.2: sources whose offsets deviate from the sample mean by more
// than one standard deviation are classified as false tickers and
// dropped. (The paper states "exceed the mean plus one standard
// deviation"; the symmetric form is used so a false ticker that is
// *behind* the truth is rejected too — see DESIGN.md.) With fewer than
// three samples there is no meaningful majority and all are kept.
//
// samples is partitioned in place, each side in its original order;
// the results are its two halves and nothing is allocated.
func RejectFalseTickers(samples []exchange.Sample) (kept, rejected []exchange.Sample) {
	if len(samples) < 3 {
		return samples, nil
	}
	var acc stats.Online
	for i := range samples {
		acc.Add(samples[i].Offset.Seconds())
	}
	mean, std := acc.Mean(), acc.StdDev()
	// The rejected wait on the stack while the kept close up in front.
	var buf [8]exchange.Sample
	out := buf[:0]
	k := 0
	for i := range samples {
		if d := math.Abs(samples[i].Offset.Seconds() - mean); std > 0 && d > std {
			out = append(out, samples[i])
		} else {
			samples[k] = samples[i]
			k++
		}
	}
	copy(samples[k:], out)
	if k == 0 || len(out) == 0 {
		// Nothing rejected, or a degenerate spread that rejected all:
		// keep the round (the copy put it back in order).
		return samples, nil
	}
	return samples[:k:k], samples[k:]
}

// CombineOffsets averages the offsets of the kept samples — the
// warm-up phase's getOffsetUsingMultipleSources result.
func CombineOffsets(samples []exchange.Sample) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s.Offset
	}
	return sum / time.Duration(len(samples))
}
