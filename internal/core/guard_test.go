package core

import (
	"errors"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/discipline"
	"mntp/internal/exchange"
	"mntp/internal/hints"
	"mntp/internal/netsim"
	"mntp/internal/ntppkt"
	"mntp/internal/sysclock"
)

// failingAdjuster refuses every correction, like an unprivileged
// process on a real host (adjtimex EPERM).
type failingAdjuster struct{}

func (failingAdjuster) Step(time.Duration) error { return errors.New("step: EPERM") }
func (failingAdjuster) AdjustFreq(float64) error { return errors.New("adjtimex: EPERM") }

// TestAdjustErrorsSurface checks the satellite bugfix: a failing
// adjuster used to be silently discarded at both call sites; now each
// refusal emits EventAdjustError and is counted in the cycle stats.
func TestAdjustErrorsSurface(t *testing.T) {
	l := newLab(61, 0, clock.Config{SkewPPM: 30, Seed: 6})
	params := DefaultParams("pool")
	params.WarmupPeriod = 5 * time.Minute
	params.WarmupWaitTime = 10 * time.Second
	params.RegularWaitTime = 30 * time.Second
	params.ResetPeriod = time.Hour

	var adjustErrors, accepted int
	var statErrors int
	l.sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: l.net, Proc: p, Clock: l.clk}
		c := New(l.clk, failingAdjuster{}, tr, hints.AlwaysFavorable, p, params)
		c.Tuner = tunerFunc(func(st CycleStats, pp Params) Params {
			statErrors += st.AdjustErrors
			return pp
		})
		c.OnEvent = func(e Event) {
			switch e.Kind {
			case EventAdjustError:
				adjustErrors++
			case EventAccepted:
				accepted++
			}
		}
		c.Run(time.Hour + time.Minute)
	})
	l.sched.Run()

	if adjustErrors == 0 {
		t.Fatal("failing adjuster produced no EventAdjustError")
	}
	if accepted == 0 {
		t.Fatal("no accepted samples (test setup broken)")
	}
	if statErrors == 0 {
		t.Error("cycle stats never counted an adjust error")
	}
}

// tunerFunc adapts a function to the Tuner interface.
type tunerFunc func(CycleStats, Params) Params

func (f tunerFunc) Adjust(st CycleStats, p Params) Params { return f(st, p) }

// TestHoldoverOnBlackoutAndRecovery drives the full client into a
// total blackout mid-regular-phase: after HoldoverAfter dry rounds it
// must emit EventHoldover (discipline in holdover, last frequency
// still applied), and when the network returns it must re-converge
// and exit holdover on the first accepted sample.
func TestHoldoverOnBlackoutAndRecovery(t *testing.T) {
	l := newLab(62, 0, clock.Config{SkewPPM: 30, InitialOffset: 80 * time.Millisecond, Seed: 8})
	params := DefaultParams("pool")
	params.WarmupPeriod = 5 * time.Minute
	params.WarmupWaitTime = 10 * time.Second
	params.RegularWaitTime = 30 * time.Second
	params.ResetPeriod = 2 * time.Hour

	down := false
	var sawHoldover, recoveredAfterHoldover bool
	var cl *Client
	l.sched.Go(func(p *netsim.Proc) {
		inner := &netsim.Transport{Net: l.net, Proc: p, Clock: l.clk}
		tr := exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
			if down {
				return nil, time.Time{}, errors.New("network unreachable")
			}
			return inner.Exchange(server, req)
		})
		cl = New(l.clk, sysclock.SimAdjuster{Clock: l.clk}, tr, hints.AlwaysFavorable, p, params)
		cl.OnEvent = func(e Event) {
			switch e.Kind {
			case EventHoldover:
				sawHoldover = true
			case EventAccepted:
				if sawHoldover {
					recoveredAfterHoldover = true
				}
			}
		}
		cl.Run(time.Hour)
	})
	l.sched.After(20*time.Minute, func() { down = true })
	l.sched.After(40*time.Minute, func() { down = false })

	var stateDuringBlackout discipline.State
	l.sched.After(35*time.Minute, func() {
		stateDuringBlackout = cl.Discipline().State()
	})
	l.sched.Run()

	if !sawHoldover {
		t.Fatal("blackout never produced EventHoldover")
	}
	if stateDuringBlackout.String() != "holdover" {
		t.Errorf("discipline state during blackout = %v, want holdover", stateDuringBlackout)
	}
	if !recoveredAfterHoldover {
		t.Fatal("no sample accepted after the network returned")
	}
	if st := cl.Discipline().State(); st.String() != "sync" {
		t.Errorf("final discipline state = %v, want sync", st)
	}
	if off := l.clk.TrueOffset(); off > 25*time.Millisecond || off < -25*time.Millisecond {
		t.Errorf("clock error after recovery = %v, want ≤ 25ms", off)
	}
}

// TestSuspendForcesRewarmup models a suspend/resume: the wall clock
// jumps 90 s while the monotonic clock does not. The client must
// detect the divergence, emit EventResumed, discard the poisoned
// sample, and re-enter warm-up — after which it may legitimately step
// the clock back (cold state) and re-converge.
func TestSuspendForcesRewarmup(t *testing.T) {
	l := newLab(63, 0, clock.Config{SkewPPM: 30, Seed: 10})
	params := DefaultParams("pool")
	params.WarmupPeriod = 5 * time.Minute
	params.WarmupWaitTime = 10 * time.Second
	params.RegularWaitTime = 30 * time.Second
	params.ResetPeriod = 2 * time.Hour

	var sawResumed, warmupAfterResume, panicAfterResume bool
	l.sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: l.net, Proc: p, Clock: l.clk}
		c := New(l.clk, sysclock.SimAdjuster{Clock: l.clk}, tr, hints.AlwaysFavorable, p, params)
		// Virtual scheduler time is the simulation's CLOCK_MONOTONIC:
		// it never jumps, while the sim wall clock can be stepped.
		c.Mono = func() time.Duration { return l.sched.Now() }
		c.OnEvent = func(e Event) {
			switch e.Kind {
			case EventResumed:
				sawResumed = true
			case EventAccepted:
				if sawResumed && e.Phase == PhaseWarmup {
					warmupAfterResume = true
				}
			case EventPanicStep:
				if sawResumed {
					panicAfterResume = true
				}
			}
		}
		c.Run(time.Hour)
	})
	// The "suspend": wall time leaps 90 s at t=20min, mono does not.
	l.sched.After(20*time.Minute, func() { l.clk.Step(90 * time.Second) })
	l.sched.Run()

	if !sawResumed {
		t.Fatal("90s wall-vs-mono divergence never detected")
	}
	if !warmupAfterResume {
		t.Fatal("no fresh warm-up after the detected resume")
	}
	if panicAfterResume {
		t.Error("recovery step after resume was panic-refused (desync not applied)")
	}
	if off := l.clk.TrueOffset(); off > 25*time.Millisecond || off < -25*time.Millisecond {
		t.Errorf("clock error after resume recovery = %v, want ≤ 25ms", off)
	}
}

// TestNetworkChangedResetsAndReprobes checks the roaming hook: the
// pool's path health resets, EventNetworkChanged is emitted, and the
// client keeps accepting samples on the new path.
func TestNetworkChangedResetsAndReprobes(t *testing.T) {
	l := newLab(64, 0, clock.Config{SkewPPM: 18, Seed: 12})
	params := DefaultParams("pool")
	params.WarmupPeriod = 5 * time.Minute
	params.WarmupWaitTime = 10 * time.Second
	params.RegularWaitTime = 2 * time.Minute
	params.ResetPeriod = 2 * time.Hour
	params.DisableClockUpdates = true

	var sawChange bool
	var acceptedAfterChange int
	var changeAt time.Duration
	var cl *Client
	l.sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: l.net, Proc: p, Clock: l.clk}
		cl = New(l.clk, nil, tr, hints.AlwaysFavorable, p, params)
		cl.OnEvent = func(e Event) {
			switch e.Kind {
			case EventNetworkChanged:
				sawChange = true
			case EventAccepted:
				if sawChange {
					acceptedAfterChange++
				}
			}
		}
		cl.Run(40 * time.Minute)
	})
	l.sched.After(20*time.Minute, func() {
		changeAt = l.sched.Now()
		cl.NetworkChanged()
	})
	l.sched.Run()

	if !sawChange {
		t.Fatal("NetworkChanged never surfaced as an event")
	}
	if acceptedAfterChange == 0 {
		t.Fatal("no samples accepted after the network change")
	}
	_ = changeAt
}

// TestNextWaitBackoff pins the jittered exponential re-probe: delays
// start near reprobeBase, stay within [b/2, b], double, and retire at
// the normal cadence.
func TestNextWaitBackoff(t *testing.T) {
	params := DefaultParams("pool")
	params.DisablePollJitter = true // pin the exact cadence for the retirement check
	c := New(nil, nil, nil, nil, nil, params)
	c.backoff = reprobeBase
	normal := time.Minute
	prevCeil := reprobeBase
	for i := 0; i < 5; i++ {
		w := c.nextWait(normal)
		if w < prevCeil/2 || w > prevCeil {
			t.Fatalf("step %d: wait %v outside [%v, %v]", i, w, prevCeil/2, prevCeil)
		}
		prevCeil *= 2
	}
	// 32s ceiling next doubles past 1 min: backoff retires.
	c.backoff = 2 * time.Minute
	if w := c.nextWait(normal); w != normal {
		t.Fatalf("retired backoff returned %v, want normal %v", w, normal)
	}
	if c.backoff != 0 {
		t.Fatal("backoff not cleared after retiring")
	}
}

// TestNextWaitPollJitter pins the poll-interval randomization: with
// the default jitter every wait falls in [0.9·normal, 1.1·normal] and
// the waits are not all identical (the fleet de-phasing property);
// with DisablePollJitter the cadence is exact.
func TestNextWaitPollJitter(t *testing.T) {
	c := New(nil, nil, nil, nil, nil, DefaultParams("pool"))
	normal := time.Minute
	lo := time.Duration(float64(normal) * (1 - DefaultPollJitter))
	hi := time.Duration(float64(normal) * (1 + DefaultPollJitter))
	distinct := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		w := c.nextWait(normal)
		if w < lo || w > hi {
			t.Fatalf("wait %d: %v outside [%v, %v]", i, w, lo, hi)
		}
		distinct[w] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct jittered waits in 50 draws", len(distinct))
	}

	params := DefaultParams("pool")
	params.DisablePollJitter = true
	c2 := New(nil, nil, nil, nil, nil, params)
	for i := 0; i < 5; i++ {
		if w := c2.nextWait(normal); w != normal {
			t.Fatalf("disabled jitter returned %v, want exact %v", w, normal)
		}
	}

	// Two clients with different jitter seeds must diverge — identical
	// sequences would keep a fleet phase-locked even with jitter on.
	pa, pb := DefaultParams("pool"), DefaultParams("pool")
	pa.JitterSeed, pb.JitterSeed = 1, 2
	ca := New(nil, nil, nil, nil, nil, pa)
	cb := New(nil, nil, nil, nil, nil, pb)
	same := 0
	for i := 0; i < 20; i++ {
		if ca.nextWait(normal) == cb.nextWait(normal) {
			same++
		}
	}
	if same == 20 {
		t.Fatal("differently seeded clients drew identical jitter sequences")
	}
}
