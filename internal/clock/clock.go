// Package clock models the oscillator-driven clocks of the MNTP study:
// a simulated host clock with initial offset, constant skew, frequency
// wander and temperature sensitivity (the error sources §2 and §3.2 of
// the paper attribute to "crystal oscillator quality and environmental
// conditions"), plus the adjustment operations (step, slew, frequency
// trim) that synchronization protocols apply.
//
// Simulated clocks are functions of *true time*, which in this
// repository is the virtual time of the discrete-event scheduler
// (internal/netsim). The harness can therefore measure a clock's true
// offset exactly — the quantity the paper calls the offset "according
// to the national standards".
package clock

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Clock is the reading interface synchronization clients use.
type Clock interface {
	// Now returns the clock's current indication of time.
	Now() time.Time
}

// Adjustable extends Clock with the correction operations protocols
// apply: an immediate step, and a frequency trim that compensates
// estimated drift (the paper's correctSystemClock and
// correctSystemClockDrift steps of Algorithm 1).
type Adjustable interface {
	Clock
	// Step adds delta to the clock immediately.
	Step(delta time.Duration)
	// AdjustFreq sets the frequency correction in seconds per second
	// (e.g. −12e-6 to cancel a +12 ppm drift). The correction is
	// absolute, not cumulative.
	AdjustFreq(correction float64)
	// FreqCorrection returns the current frequency correction.
	FreqCorrection() float64
}

// Config parameterizes a simulated oscillator clock. The defaults (see
// DefaultConfig) correspond to a commodity laptop/phone crystal: tens
// of ppm constant skew, sub-ppm wander, and a small temperature
// coefficient.
type Config struct {
	// InitialOffset is the clock's error at true time zero.
	InitialOffset time.Duration
	// SkewPPM is the constant frequency error in parts per million.
	// Positive skew makes the clock run fast.
	SkewPPM float64
	// WanderPPMPerSqrtHour is the standard deviation of the frequency
	// random walk, in ppm accumulated per square-root hour.
	WanderPPMPerSqrtHour float64
	// TempCoeffPPMPerC is the frequency sensitivity to temperature in
	// ppm per degree Celsius away from the reference temperature.
	TempCoeffPPMPerC float64
	// TempAmplitudeC and TempPeriod shape a sinusoidal ambient
	// temperature excursion around the reference (e.g. HVAC cycles).
	TempAmplitudeC float64
	TempPeriod     time.Duration
	// Seed drives the wander process. Clocks with equal configs and
	// seeds are identical.
	Seed int64
}

// DefaultConfig returns a typical uncompensated crystal configuration:
// 18 ppm fast, mild wander and temperature sensitivity. 18 ppm ≈ 65 ms
// of accumulated error per hour, in line with the free-running drift
// visible in the paper's Figures 8 and 12.
func DefaultConfig(seed int64) Config {
	return Config{
		InitialOffset:        0,
		SkewPPM:              18,
		WanderPPMPerSqrtHour: 0.4,
		TempCoeffPPMPerC:     0.08,
		TempAmplitudeC:       3,
		TempPeriod:           45 * time.Minute,
		Seed:                 seed,
	}
}

// quantum is the longest integration step of the oscillator state, and
// wander takes one random-walk draw per *full* step. The noise path
// therefore depends on the query pattern: a clock read every 300 ms
// never wanders, one read every 2.5 s draws twice, not 2.5 times. The
// goldens pin this (ROADMAP, next [benchmark] issue).
const quantum = time.Second

// Sim is a simulated oscillator clock. It is driven by a TrueTime
// source (typically the scheduler) and is safe for concurrent use.
type Sim struct {
	mu sync.Mutex

	cfg      Config
	trueNow  func() time.Duration // true elapsed time source
	epoch    time.Time            // wall-clock anchor for Now()
	rng      *rand.Rand
	lastTrue time.Duration // true time the state was integrated to
	offset   float64       // seconds of error at lastTrue
	wander   float64       // accumulated random-walk frequency (s/s)
	adjFreq  float64       // applied frequency correction (s/s)
	// Fixed by cfg: the random-walk standard deviation of one quantum,
	// the constant skew and the temperature coefficient (all s/s), and
	// the temperature period in ns, zero when the term is off.
	wanderStep, skew, tempCoeff, tempPeriod float64
}

// NewSim creates a simulated clock. trueNow must return monotonically
// non-decreasing true elapsed time (the scheduler's Now); epoch anchors
// the returned wall-clock times.
func NewSim(cfg Config, epoch time.Time, trueNow func() time.Duration) *Sim {
	wanderPerSqrtSec := cfg.WanderPPMPerSqrtHour * 1e-6 / math.Sqrt(3600)
	s := &Sim{
		cfg:        cfg,
		trueNow:    trueNow,
		epoch:      epoch,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		offset:     cfg.InitialOffset.Seconds(),
		wanderStep: wanderPerSqrtSec * math.Sqrt(quantum.Seconds()),
		skew:       cfg.SkewPPM * 1e-6,
		tempCoeff:  cfg.TempCoeffPPMPerC * 1e-6,
	}
	if cfg.TempAmplitudeC != 0 && cfg.TempPeriod > 0 && cfg.TempCoeffPPMPerC != 0 {
		s.tempPeriod = float64(cfg.TempPeriod)
	}
	return s
}

// advanceTo integrates the oscillator state forward to true time t.
// Must be called with mu held.
func (s *Sim) advanceTo(t time.Duration) {
	for s.lastTrue < t {
		// Frequency error during this step; the goldens pin the order.
		freq := s.skew + s.wander + s.tempFreq(s.lastTrue) + s.adjFreq
		if rem := t - s.lastTrue; rem < quantum {
			s.offset += freq * rem.Seconds()
			s.lastTrue = t
			return
		}
		// A full quantum lasts exactly 1.0 s, so freq is its offset gain
		// bit for bit; each takes one random-walk draw.
		s.offset += freq
		s.wander += s.wanderStep * s.rng.NormFloat64()
		s.lastTrue += quantum
	}
}

// tempFreq returns the temperature-induced frequency error at true
// time t.
func (s *Sim) tempFreq(t time.Duration) float64 {
	if s.tempPeriod == 0 {
		return 0
	}
	phase := 2 * math.Pi * float64(t) / s.tempPeriod
	return s.tempCoeff * (s.cfg.TempAmplitudeC * math.Sin(phase))
}

// Now returns the clock's current indication: epoch + true elapsed +
// accumulated error.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.trueNow()
	s.advanceTo(t)
	return s.epoch.Add(t).Add(time.Duration(s.offset * float64(time.Second)))
}

// TrueOffset returns the clock's current error relative to true time:
// positive means the clock is ahead. This is the harness-only oracle
// used to score experiments; protocol code never calls it.
func (s *Sim) TrueOffset() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.trueNow()
	s.advanceTo(t)
	return time.Duration(s.offset * float64(time.Second))
}

// Step adds delta to the clock immediately.
func (s *Sim) Step(delta time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceTo(s.trueNow())
	s.offset += delta.Seconds()
}

// AdjustFreq sets the frequency correction (seconds per second).
func (s *Sim) AdjustFreq(correction float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceTo(s.trueNow())
	s.adjFreq = correction
}

// FreqCorrection returns the applied frequency correction.
func (s *Sim) FreqCorrection() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adjFreq
}

// RawFreqError returns the clock's current uncorrected frequency error
// in seconds per second (skew + wander + temperature), an oracle for
// tests asserting drift estimation accuracy.
func (s *Sim) RawFreqError() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.trueNow()
	s.advanceTo(t)
	return s.skew + s.wander + s.tempFreq(t)
}

// True is a perfect reference clock: it indicates exactly epoch + true
// elapsed time. Stratum-1 servers in the simulated pool use (small
// perturbations of) it.
type True struct {
	epoch   time.Time
	trueNow func() time.Duration
}

// NewTrue creates a perfect clock over the given true time source.
func NewTrue(epoch time.Time, trueNow func() time.Duration) *True {
	return &True{epoch: epoch, trueNow: trueNow}
}

// Now returns the exact true time.
func (t *True) Now() time.Time { return t.epoch.Add(t.trueNow()) }

// Fixed is a clock with a constant error relative to true time; the
// simulated pool uses it for servers whose absolute error is part of
// the scenario (false tickers).
type Fixed struct {
	Base  Clock
	Error time.Duration
}

// Now returns the base clock's time shifted by the configured error.
func (f *Fixed) Now() time.Time { return f.Base.Now().Add(f.Error) }

// System is the host's real clock; it backs the real-UDP deployments.
type System struct{}

// Now returns time.Now().
func (System) Now() time.Time { return time.Now() }

var (
	_ Adjustable = (*Sim)(nil)
	_ Clock      = (*True)(nil)
	_ Clock      = (*Fixed)(nil)
	_ Clock      = System{}
)
