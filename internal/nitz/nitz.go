// Package nitz models the Network Identity and Time Zone mechanism
// the paper describes in §2: a carrier-delivered time signal that
// mobile devices receive "in a one-off fashion ... dependent on the
// device crossing a network boundary". NITZ time is coarse (second
// granularity, plus delivery latency) and arrives unpredictably, which
// is why the paper calls it "a weaker mechanism to obtain time
// information".
//
// The package provides the simulated carrier signal source and an
// Android-style time manager reproducing the platform behaviour the
// paper extracted from the codebase: prefer NITZ when available, fall
// back to a daily SNTP poll, and update the system clock only when
// the estimate differs by more than 5000 ms.
package nitz

import (
	"math/rand"
	"time"

	"mntp/internal/clock"
	"mntp/internal/netsim"
	"mntp/internal/sntp"
)

// Signal is one NITZ delivery.
type Signal struct {
	// Time is the carrier's time indication at delivery.
	Time time.Time
	// At is the virtual time of delivery.
	At time.Duration
}

// SourceConfig parameterizes the simulated carrier signal.
type SourceConfig struct {
	// MeanBoundaryInterval is the mean time between network-boundary
	// crossings (Poisson arrivals; default 4 h — a commuting device).
	MeanBoundaryInterval time.Duration
	Seed                 int64
}

const (
	// quantum is the granularity of the carrier's time indication
	// (NITZ carries whole seconds).
	quantum = time.Second
	// carrierError is the maximum absolute error of the carrier's own
	// clock (uniform — carrier NITZ servers are loosely synchronized).
	carrierError = time.Second
	// deliveryDelay is the maximum signalling latency between the
	// boundary event and delivery to the device (uniform).
	deliveryDelay = 2 * time.Second
	// sntpPollInterval is the fallback cadence without NITZ ("Android
	// SNTP implementations poll once a day if data from NITZ are
	// unavailable", §2).
	sntpPollInterval = 24 * time.Hour
	// updateThreshold suppresses clock updates smaller than this (the
	// Android behaviour).
	updateThreshold = 5000 * time.Millisecond
)

// Source delivers NITZ signals on a scheduler.
type Source struct {
	cfg   SourceConfig
	sched *netsim.Scheduler
	truth clock.Clock
	rng   *rand.Rand
}

// NewSource creates a signal source over the scheduler; truth is the
// reference the carrier's clock approximates.
func NewSource(sched *netsim.Scheduler, truth clock.Clock, cfg SourceConfig) *Source {
	if cfg.MeanBoundaryInterval == 0 {
		cfg.MeanBoundaryInterval = 4 * time.Hour
	}
	return &Source{cfg: cfg, sched: sched, truth: truth, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Run schedules boundary crossings until the given virtual time,
// invoking deliver for each signal.
func (s *Source) Run(until time.Duration, deliver func(Signal)) {
	var next func()
	next = func() {
		wait := time.Duration(s.rng.ExpFloat64() * float64(s.cfg.MeanBoundaryInterval))
		if wait < time.Minute {
			wait = time.Minute
		}
		s.sched.After(wait, func() {
			if s.sched.Now() >= until {
				return
			}
			// Carrier indication: truth + carrier error, quantized,
			// delivered after signalling latency.
			indicated := s.truth.Now().
				Add(time.Duration((s.rng.Float64()*2 - 1) * float64(carrierError))).
				Truncate(quantum)
			delay := time.Duration(s.rng.Float64() * float64(deliveryDelay))
			s.sched.After(delay, func() {
				if s.sched.Now() >= until {
					return
				}
				deliver(Signal{Time: indicated, At: s.sched.Now()})
			})
			next()
		})
	}
	next()
}

// ManagerConfig parameterizes the Android-style time manager.
type ManagerConfig struct {
	// NITZAvailable selects whether the carrier provides NITZ; when
	// false the manager falls back to SNTP polling every
	// sntpPollInterval.
	NITZAvailable bool
}

// Manager reproduces the Android system time policy.
type Manager struct {
	Clock clock.Adjustable
	SNTP  *sntp.Client // used only when NITZ is unavailable
	Cfg   ManagerConfig

	// Updates counts applied clock updates; NITZSignals counts
	// received signals.
	Updates, NITZSignals int
}

// NewManager creates a manager; snptClient may be nil when
// NITZAvailable is true.
func NewManager(clk clock.Adjustable, sntpClient *sntp.Client, cfg ManagerConfig) *Manager {
	if sntpClient != nil {
		sntpClient.Config.UpdateThreshold = updateThreshold
	}
	return &Manager{Clock: clk, SNTP: sntpClient, Cfg: cfg}
}

// OnNITZ handles one carrier signal: the clock is set to the
// indicated time when the difference exceeds the update threshold.
func (m *Manager) OnNITZ(sig Signal) {
	m.NITZSignals++
	if !m.Cfg.NITZAvailable {
		return
	}
	diff := sig.Time.Sub(m.Clock.Now())
	if diff > -updateThreshold && diff < updateThreshold {
		return
	}
	m.Clock.Step(diff)
	m.Updates++
}

// RunFallback runs the daily SNTP fallback loop for the given
// duration (no-op when NITZ is available or no client is configured).
// sl is the waiting abstraction (netsim.Proc in simulation).
func (m *Manager) RunFallback(sl sntp.Sleeper, duration time.Duration) {
	if m.Cfg.NITZAvailable || m.SNTP == nil {
		return
	}
	for elapsed := time.Duration(0); elapsed < duration; elapsed += sntpPollInterval {
		if _, updated, err := m.SNTP.SyncOnce(); err == nil && updated {
			m.Updates++
		}
		sl.Sleep(sntpPollInterval)
	}
}
