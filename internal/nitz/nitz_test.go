package nitz

import (
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/netsim"
)

var epoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

func TestSourceDeliversSignals(t *testing.T) {
	sched := netsim.NewScheduler()
	truth := clock.NewTrue(epoch, sched.Now)
	src := NewSource(sched, truth, SourceConfig{
		MeanBoundaryInterval: 2 * time.Hour, Seed: 1,
	})
	var signals []Signal
	src.Run(24*time.Hour, func(s Signal) { signals = append(signals, s) })
	sched.Run()

	if len(signals) < 4 || len(signals) > 40 {
		t.Fatalf("signals in 24h = %d, want a handful (mean interval 2h)", len(signals))
	}
	for i, s := range signals {
		// The indication must be within carrier error + quantum +
		// delivery delay of true time at delivery.
		truthAt := epoch.Add(s.At)
		diff := s.Time.Sub(truthAt)
		if diff < -5*time.Second || diff > 5*time.Second {
			t.Errorf("signal %d error %v exceeds NITZ coarseness envelope", i, diff)
		}
		// Quantized to whole seconds.
		if s.Time.Nanosecond() != 0 {
			t.Errorf("signal %d not quantized: %v", i, s.Time)
		}
		if i > 0 && s.At < signals[i-1].At {
			t.Error("signals out of order")
		}
	}
}

func TestSourceDeterministic(t *testing.T) {
	run := func() []time.Duration {
		sched := netsim.NewScheduler()
		truth := clock.NewTrue(epoch, sched.Now)
		src := NewSource(sched, truth, SourceConfig{Seed: 5})
		var at []time.Duration
		src.Run(48*time.Hour, func(s Signal) { at = append(at, s.At) })
		sched.Run()
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("delivery times differ between identical runs")
		}
	}
}

func TestManagerAppliesLargeNITZ(t *testing.T) {
	mt := time.Duration(0)
	clk := clock.NewSim(clock.Config{InitialOffset: -8 * time.Second, Seed: 1},
		epoch, func() time.Duration { return mt })
	m := NewManager(clk, nil, ManagerConfig{NITZAvailable: true})
	m.OnNITZ(Signal{Time: epoch, At: 0}) // truth says epoch; clock is 8 s behind
	if m.Updates != 1 {
		t.Fatalf("updates = %d", m.Updates)
	}
	if off := clk.TrueOffset(); off < -time.Second || off > time.Second {
		t.Errorf("post-NITZ offset = %v, want within NITZ coarseness", off)
	}
}

func TestManagerIgnoresSmallDifference(t *testing.T) {
	mt := time.Duration(0)
	clk := clock.NewSim(clock.Config{InitialOffset: 2 * time.Second, Seed: 1},
		epoch, func() time.Duration { return mt })
	m := NewManager(clk, nil, ManagerConfig{NITZAvailable: true})
	m.OnNITZ(Signal{Time: epoch, At: 0})
	if m.Updates != 0 {
		t.Error("sub-threshold NITZ applied")
	}
	if off := clk.TrueOffset(); off != 2*time.Second {
		t.Errorf("clock changed: %v", off)
	}
}

func TestManagerUnavailableNITZIgnored(t *testing.T) {
	mt := time.Duration(0)
	clk := clock.NewSim(clock.Config{InitialOffset: time.Minute, Seed: 1},
		epoch, func() time.Duration { return mt })
	m := NewManager(clk, nil, ManagerConfig{NITZAvailable: false})
	m.OnNITZ(Signal{Time: epoch, At: 0})
	if m.Updates != 0 {
		t.Error("NITZ applied despite unavailability")
	}
	if m.NITZSignals != 1 {
		t.Error("signal not counted")
	}
}

// End-to-end: a device with NITZ-only time over a week keeps errors
// bounded by the NITZ coarseness (seconds) but far above what even
// plain SNTP achieves — the paper's point that NITZ is weaker.
func TestNITZOnlyDeviceStaysCoarselySynchronized(t *testing.T) {
	sched := netsim.NewScheduler()
	truth := clock.NewTrue(epoch, sched.Now)
	// A badly drifting phone: 60 ppm ≈ 5.2 s/day.
	clk := clock.NewSim(clock.Config{SkewPPM: 60, Seed: 2}, epoch, sched.Now)
	m := NewManager(clk, nil, ManagerConfig{NITZAvailable: true})
	src := NewSource(sched, truth, SourceConfig{MeanBoundaryInterval: 3 * time.Hour, Seed: 3})
	src.Run(7*24*time.Hour, m.OnNITZ)

	var worst time.Duration
	sched.Every(time.Hour, time.Hour, func() bool {
		off := clk.TrueOffset()
		if off < 0 {
			off = -off
		}
		if off > worst {
			worst = off
		}
		return sched.Now() < 7*24*time.Hour
	})
	sched.Run()

	if m.Updates == 0 {
		t.Fatal("no NITZ updates in a week")
	}
	// Bounded by drift-between-signals + threshold + coarseness:
	// should stay under ~10 s but well above 100 ms.
	if worst > 10*time.Second {
		t.Errorf("worst error %v: NITZ failed to bound drift", worst)
	}
	if worst < 100*time.Millisecond {
		t.Errorf("worst error %v: implausibly tight for NITZ", worst)
	}
}
