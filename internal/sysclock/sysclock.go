// Package sysclock abstracts the vendor-specific system-clock
// adjustment calls of Algorithm 1 ("The actual clock update and drift
// correction mechanisms vary, depending on vendor-specific system
// calls available to MNTP", §4.2).
//
// Simulated deployments use clock.Sim through the Adjuster interface;
// real Linux hosts can use the adjtimex(2) backend in
// sysclock_linux.go, which requires CAP_SYS_TIME for mutations but can
// always read kernel discipline state.
package sysclock

import (
	"time"

	"mntp/internal/clock"
)

// Adjuster applies clock corrections: an immediate step and an
// absolute frequency trim. clock.Adjustable satisfies it directly.
type Adjuster interface {
	// Step shifts the clock by delta immediately.
	Step(delta time.Duration) error
	// AdjustFreq sets the frequency correction in seconds per second.
	AdjustFreq(correction float64) error
}

// SimAdjuster adapts a clock.Adjustable (which cannot fail) to the
// fallible Adjuster interface.
type SimAdjuster struct{ Clock clock.Adjustable }

// Step implements Adjuster.
func (s SimAdjuster) Step(delta time.Duration) error {
	s.Clock.Step(delta)
	return nil
}

// AdjustFreq implements Adjuster.
func (s SimAdjuster) AdjustFreq(correction float64) error {
	s.Clock.AdjustFreq(correction)
	return nil
}

// Noop discards all adjustments; measurement-only runs (like the
// paper's experiments "without NTP clock correction") use it.
type Noop struct{}

// Step implements Adjuster.
func (Noop) Step(time.Duration) error { return nil }

// AdjustFreq implements Adjuster.
func (Noop) AdjustFreq(float64) error { return nil }

// kernelState is a snapshot of the kernel clock discipline, as read by
// the platform backend.
type kernelState struct {
	// OffsetRemaining is the residual slew the kernel is applying.
	OffsetRemaining time.Duration
	// FreqPPM is the kernel frequency correction in ppm.
	FreqPPM float64
	// Synchronized reports whether the kernel believes the clock is
	// disciplined.
	Synchronized bool
}
