package trend

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refTracker is the residual tracker as it was before the gate became
// O(1): the whole history is kept and refGate walks it twice (mean,
// then deviation) on every call. It is the reference the running-moment
// tracker is held to.
type refTracker struct {
	sq    []float64
	floor float64
}

func (r *refTracker) accept(sqErr float64) { r.sq = append(r.sq, sqErr) }

func (r *refTracker) refGate() float64 {
	if len(r.sq) == 0 {
		return r.floor
	}
	var mean float64
	for _, s := range r.sq {
		mean += s
	}
	mean /= float64(len(r.sq))
	var v float64
	for _, s := range r.sq {
		d := s - mean
		v += d * d
	}
	v /= float64(len(r.sq))
	gate := mean + math.Sqrt(v)
	if gate < r.floor {
		gate = r.floor
	}
	return gate
}

// residualSequence draws the squared errors one filter cycle might
// see: squared Gaussian residuals of a few milliseconds, optionally
// behind a run of exact zeros (samples that sat on the line) and
// around one outlier six orders of magnitude larger.
func residualSequence(rng *rand.Rand, n int, zeroStart, outlier bool) []float64 {
	sigma := 1e-3 * (0.5 + 4*rng.Float64())
	out := make([]float64, n)
	for i := range out {
		e := sigma * rng.NormFloat64()
		out[i] = e * e
	}
	if zeroStart {
		for i := 0; i < n/10+3 && i < n; i++ {
			out[i] = 0
		}
	}
	if outlier {
		out[rng.Intn(n)] = sigma * sigma * 1e6
	}
	return out
}

// TestGateMatchesTwoPassReference drives the running-moment tracker
// and the two-pass reference through the same seeded residual
// sequences the way Filter.Offer does (ask, then record what was let
// in) and requires the same decision at every step — for the offered
// residual and for probes a relative 1e-9 under and over the gate —
// and gate values within 1e-12 relative. The two gates may differ in
// the last ulp, so a probe exactly on one gate is only required to be
// admitted by that gate (the boundary stays inclusive).
func TestGateMatchesTwoPassReference(t *testing.T) {
	const probe = 1e-9
	sequences, steps, bitDiffs := 0, 0, 0
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(400)
		if seed%64 == 0 {
			n = 10000
		}
		floor := 9e-6 // (3 ms)², the filter's default
		if seed%5 == 0 {
			floor = 0
		}
		seq := residualSequence(rng, n, seed%3 == 0, seed%4 == 0)
		got := NewResidualTracker(floor)
		ref := &refTracker{floor: floor}
		sequences++
		for i, sq := range seq {
			steps++
			g, w := got.Gate(), ref.refGate()
			if g != w {
				bitDiffs++
			}
			if math.Abs(g-w) > 1e-12*math.Max(g, w) {
				t.Fatalf("seed %d step %d: gate %v, reference %v", seed, i, g, w)
			}
			if !got.Admits(g) {
				t.Fatalf("seed %d step %d: a residual exactly on the gate is rejected", seed, i)
			}
			for _, p := range []float64{sq, w * (1 - probe), w * (1 + probe)} {
				if got.Admits(p) != (p <= w) {
					t.Fatalf("seed %d step %d: residual %v against gate %v (reference %v): decision differs",
						seed, i, p, g, w)
				}
			}
			// The filter records what the gate admits, plus what its
			// second-chance bound lets through.
			if sq <= w || rng.Intn(8) == 0 {
				got.Accept(sq)
				ref.accept(sq)
			}
		}
		if got.N() != len(ref.sq) {
			t.Fatalf("seed %d: N = %d, reference holds %d", seed, got.N(), len(ref.sq))
		}
	}
	t.Logf("%d sequences, %d steps, 0 decision differences; gate bits differ at %d steps", sequences, steps, bitDiffs)
}

var gateSink float64

// BenchmarkGate reads the gate behind histories of three lengths; the
// cost must not depend on the length.
func BenchmarkGate(b *testing.B) {
	for _, n := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := NewResidualTracker(9e-6)
			for _, sq := range residualSequence(rand.New(rand.NewSource(1)), n, false, false) {
				r.Accept(sq)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gateSink = r.Gate()
			}
		})
	}
}
