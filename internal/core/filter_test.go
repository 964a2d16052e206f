package core

import (
	"math/rand"
	"testing"
	"time"

	"mntp/internal/exchange"
	"mntp/internal/trend"
)

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestFilterAcceptsInitialSamples(t *testing.T) {
	f := NewFilter(ms(3), 3)
	for i := 0; i < 3; i++ {
		acc, _, _ := f.Offer(time.Duration(i)*5*time.Second, ms(float64(i)))
		if !acc {
			t.Fatalf("initial sample %d rejected", i)
		}
	}
	if f.N() != 3 {
		t.Errorf("N = %d", f.N())
	}
}

func TestFilterRejectsOutlierAcceptsOnTrend(t *testing.T) {
	// Clock drifting at 10 ppm with small noise; one 200 ms spike.
	f := NewFilter(ms(3), 3)
	rng := rand.New(rand.NewSource(1))
	const drift = 10e-6
	for i := 0; i < 30; i++ {
		x := time.Duration(i) * 5 * time.Second
		y := time.Duration(drift*float64(x)) + ms(rng.NormFloat64()*0.8)
		if acc, _, _ := f.Offer(x, y); !acc {
			t.Fatalf("on-trend sample %d rejected", i)
		}
	}
	// Spike far off the trend.
	x := 31 * 5 * time.Second
	spike := time.Duration(drift*float64(x)) + ms(200)
	if acc, _, _ := f.Offer(x, spike); acc {
		t.Error("200ms outlier accepted")
	}
	// Next on-trend sample still accepted (outlier did not poison the
	// trend).
	x = 32 * 5 * time.Second
	good := time.Duration(drift * float64(x))
	if acc, _, _ := f.Offer(x, good); !acc {
		t.Error("post-outlier on-trend sample rejected")
	}
}

func TestFilterRecoversDrift(t *testing.T) {
	f := NewFilter(ms(3), 3)
	const drift = 25e-6
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		x := time.Duration(i) * 15 * time.Second
		y := time.Duration(drift*float64(x)) + ms(rng.NormFloat64()*1.2)
		f.Offer(x, y)
	}
	got, ok := f.Drift()
	if !ok {
		t.Fatal("no drift estimate")
	}
	if got < 20e-6 || got > 30e-6 {
		t.Errorf("drift = %v, want ~25ppm", got)
	}
}

func TestFilterFloorKeepsGateOpenAtStart(t *testing.T) {
	// Perfectly linear start (zero residual variance): without the
	// floor, any nonzero deviation would be rejected. The floor must
	// admit small noise.
	f := NewFilter(ms(3), 3)
	for i := 0; i < 5; i++ {
		f.Offer(time.Duration(i)*5*time.Second, ms(float64(i))) // exact line
	}
	x := 5 * 5 * time.Second
	if acc, _, _ := f.Offer(x, ms(5.0+2.0)); !acc { // 2 ms off a perfect line
		t.Error("2ms deviation rejected despite 3ms floor")
	}
	if acc, _, _ := f.Offer(6*5*time.Second, ms(6.0+80)); acc {
		t.Error("80ms deviation admitted")
	}
}

func TestFilterApplyStepKeepsPredictionsConsistent(t *testing.T) {
	f := NewFilter(ms(3), 3)
	// History along offset = 100ms (no drift).
	for i := 0; i < 10; i++ {
		f.Offer(time.Duration(i)*time.Minute, ms(100))
	}
	// Clock stepped by +100 ms: future offsets become ~0.
	f.ApplyStep(ms(100))
	pred, ok := f.Predict(11 * time.Minute)
	if !ok {
		t.Fatal("no prediction")
	}
	if pred < ms(-3) || pred > ms(3) {
		t.Errorf("post-step prediction = %v, want ~0", pred)
	}
	if acc, _, _ := f.Offer(11*time.Minute, ms(0.5)); !acc {
		t.Error("post-step on-trend sample rejected")
	}
}

func TestFilterApplyFreqFlattensTrend(t *testing.T) {
	f := NewFilter(ms(3), 3)
	const drift = 50e-6
	for i := 0; i < 20; i++ {
		x := time.Duration(i) * 30 * time.Second
		f.Offer(x, time.Duration(drift*float64(x)))
	}
	now := 19 * 30 * time.Second
	est, _ := f.Drift()
	f.ApplyFreq(est, now)
	// After the frequency trim, the trend should be flat at the
	// prediction for `now`.
	d, _ := f.Drift()
	if d > 5e-6 || d < -5e-6 {
		t.Errorf("post-trim drift = %v, want ~0", d)
	}
	pred, _ := f.Predict(now)
	want := time.Duration(drift * float64(now))
	if diff := pred - want; diff < -ms(2) || diff > ms(2) {
		t.Errorf("post-trim prediction at now = %v, want %v", pred, want)
	}
}

func sampleWithOffset(server string, off time.Duration) exchange.Sample {
	return exchange.Sample{Server: server, Offset: off}
}

func TestRejectFalseTickersPositive(t *testing.T) {
	samples := []exchange.Sample{
		sampleWithOffset("a", ms(1)),
		sampleWithOffset("b", ms(-2)),
		sampleWithOffset("c", ms(480)),
	}
	kept, rejected := RejectFalseTickers(samples)
	if len(rejected) != 1 || rejected[0].Server != "c" {
		t.Errorf("rejected = %v", rejected)
	}
	if len(kept) != 2 {
		t.Errorf("kept = %v", kept)
	}
}

func TestRejectFalseTickersNegative(t *testing.T) {
	samples := []exchange.Sample{
		sampleWithOffset("a", ms(1)),
		sampleWithOffset("b", ms(-2)),
		sampleWithOffset("c", ms(-480)),
	}
	_, rejected := RejectFalseTickers(samples)
	if len(rejected) != 1 || rejected[0].Server != "c" {
		t.Errorf("negative false ticker not rejected: %v", rejected)
	}
}

func TestRejectFalseTickersFewSamples(t *testing.T) {
	samples := []exchange.Sample{
		sampleWithOffset("a", ms(1)),
		sampleWithOffset("b", ms(900)),
	}
	kept, rejected := RejectFalseTickers(samples)
	if len(kept) != 2 || rejected != nil {
		t.Error("pairs have no majority; both must be kept")
	}
}

func TestRejectFalseTickersAllEqual(t *testing.T) {
	samples := []exchange.Sample{
		sampleWithOffset("a", ms(5)),
		sampleWithOffset("b", ms(5)),
		sampleWithOffset("c", ms(5)),
	}
	kept, rejected := RejectFalseTickers(samples)
	if len(kept) != 3 || len(rejected) != 0 {
		t.Error("identical offsets must all be kept")
	}
}

// TestRejectFalseTickersPartitionsInPlace: the two results are the
// halves of the caller's slice, each in arrival order, and nothing is
// allocated.
func TestRejectFalseTickersPartitionsInPlace(t *testing.T) {
	build := func() []exchange.Sample {
		return []exchange.Sample{
			sampleWithOffset("far+", ms(480)),
			sampleWithOffset("a", ms(1)),
			sampleWithOffset("b", ms(-2)),
			sampleWithOffset("far-", ms(-470)),
			sampleWithOffset("c", ms(3)),
			sampleWithOffset("d", ms(0)),
		}
	}
	samples := build()
	kept, rejected := RejectFalseTickers(samples)
	names := func(ss []exchange.Sample) (out string) {
		for _, s := range ss {
			out += s.Server + " "
		}
		return out
	}
	if got := names(kept); got != "a b c d " {
		t.Errorf("kept = %q, want arrival order a b c d", got)
	}
	if got := names(rejected); got != "far+ far- " {
		t.Errorf("rejected = %q, want arrival order far+ far-", got)
	}
	if got := names(samples); got != "a b c d far+ far- " {
		t.Errorf("samples after the call = %q, want kept then rejected", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		s := build()
		RejectFalseTickers(s)
	}); n > 1 { // build's slice
		t.Errorf("RejectFalseTickers allocates: %v per call beyond its input", n-1)
	}
}

func TestCombineOffsets(t *testing.T) {
	if got := CombineOffsets(nil); got != 0 {
		t.Errorf("empty combine = %v", got)
	}
	samples := []exchange.Sample{
		sampleWithOffset("a", ms(10)),
		sampleWithOffset("b", ms(20)),
	}
	if got := CombineOffsets(samples); got != ms(15) {
		t.Errorf("combine = %v, want 15ms", got)
	}
}

func TestDriftWithError(t *testing.T) {
	f := NewFilter(ms(3), 3)
	if _, _, ok := f.DriftWithError(); ok {
		t.Error("empty filter returned a drift estimate")
	}
	// Exact line: slope recovered, standard error ~0.
	for i := 0; i < 20; i++ {
		x := time.Duration(i) * 10 * time.Second
		f.Offer(x, time.Duration(20e-6*float64(x)))
	}
	drift, se, ok := f.DriftWithError()
	if !ok {
		t.Fatal("no estimate")
	}
	if drift < 15e-6 || drift > 25e-6 {
		t.Errorf("drift = %v, want ~20ppm", drift)
	}
	if se > 1e-6 {
		t.Errorf("stderr = %v, want ~0 for an exact line", se)
	}
}

func TestDriftErrorLargeForScatteredFewSamples(t *testing.T) {
	// Three scattered points: the slope is meaningless and the
	// standard error must say so (this is what prevents the runaway
	// drift corrections the paper's §5.3 tuning uncovered).
	f := NewFilter(ms(3), 3)
	f.Offer(0, ms(0))
	f.Offer(10*time.Second, ms(300))
	f.Offer(20*time.Second, ms(-200))
	_, se, ok := f.DriftWithError()
	if !ok {
		t.Fatal("no estimate")
	}
	if se < 25e-6 {
		t.Errorf("stderr = %v ppm, want large for scattered points", se*1e6)
	}
}

func TestFilterFallbackGateWhenVarianceUnavailable(t *testing.T) {
	// Two samples at distinct elapsed times define a line but give the
	// estimator no residual degrees of freedom, so PredictVariance
	// returns trend.ErrInsufficient. The second-chance gate must then
	// use the explicit bounded default (|error| ≤ 3·floor) and count
	// the fallback, rather than silently skipping the second chance.
	f := NewFilter(ms(3), 2)
	f.Offer(0, 0)
	f.Offer(5*time.Second, 0)

	// 5 ms error: squared 25e-6 exceeds the residual gate's floored
	// mean (9e-6), but |5 ms| ≤ 3·3 ms, so the fallback admits it.
	acc, _, _ := f.Offer(10*time.Second, ms(5))
	if !acc {
		t.Fatalf("5 ms offer should pass the 3·floor fallback gate")
	}
	if got := f.VarianceFallbacks(); got != 1 {
		t.Errorf("VarianceFallbacks = %d, want 1", got)
	}

	// A fresh filter in the same state must still reject an offer far
	// outside the bounded default: the fallback is a gate, not a pass.
	g := NewFilter(ms(3), 2)
	g.Offer(0, 0)
	g.Offer(5*time.Second, 0)
	acc, _, _ = g.Offer(10*time.Second, ms(80))
	if acc {
		t.Fatalf("80 ms offer must stay rejected under the fallback gate")
	}
	if got := g.VarianceFallbacks(); got != 1 {
		t.Errorf("VarianceFallbacks = %d, want 1", got)
	}
}

func TestFilterKindRobustRejectsSpike(t *testing.T) {
	// The Theil-Sen and LAD-backed filters must behave like the
	// least-squares one on the basic contract: track a drifting clock,
	// reject a gross spike, keep predicting.
	for _, kind := range []trend.Kind{trend.KindTheilSen, trend.KindLAD} {
		f := NewFilterKind(kind, 32, ms(3), 3)
		const drift = 10e-6
		for i := 0; i < 20; i++ {
			el := time.Duration(i) * 10 * time.Second
			off := time.Duration(drift * float64(el))
			if acc, _, _ := f.Offer(el, off); !acc {
				t.Fatalf("%s: on-trend sample %d rejected", kind, i)
			}
		}
		if acc, _, _ := f.Offer(200*time.Second, ms(200)); acc {
			t.Errorf("%s: 200 ms spike accepted", kind)
		}
		d, ok := f.Drift()
		if !ok || d < 5e-6 || d > 15e-6 {
			t.Errorf("%s: drift = %v ok=%v, want ≈10 ppm", kind, d, ok)
		}
	}
}
