package overload

import (
	"testing"
	"time"
)

// base is an arbitrary synthetic epoch; every test advances from it
// explicitly so no state transition depends on the wall clock.
var base = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func cfg() Config {
	return Config{
		Target:           5 * time.Millisecond,
		Interval:         100 * time.Millisecond,
		RecoveryInterval: 200 * time.Millisecond,
		OverloadFactor:   8,
		Alpha:            1, // EWMA = last sample: tests control it exactly
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Healthy: "healthy", Degraded: "degraded", Overloaded: "overloaded", State(9): "unknown",
	} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
}

func TestSpikeDoesNotDegrade(t *testing.T) {
	c := New(cfg())
	c.Observe(time.Second, base) // huge instantaneous spike
	c.Observe(time.Second, base.Add(50*time.Millisecond))
	if got := c.State(); got != Healthy {
		t.Fatalf("state after 50ms of excess = %v, want healthy (interval is 100ms)", got)
	}
	// Back under target before the interval elapses: timer must reset.
	c.Observe(time.Millisecond, base.Add(60*time.Millisecond))
	c.Observe(time.Second, base.Add(70*time.Millisecond))
	c.Observe(time.Second, base.Add(160*time.Millisecond)) // only 90ms of new excess
	if got := c.State(); got != Healthy {
		t.Fatalf("state = %v, want healthy after excess timer reset", got)
	}
}

func TestSustainedExcessDegrades(t *testing.T) {
	c := New(cfg())
	c.Observe(10*time.Millisecond, base) // above target, below 8×target
	c.Observe(10*time.Millisecond, base.Add(100*time.Millisecond))
	if got := c.State(); got != Degraded {
		t.Fatalf("state after sustained excess = %v, want degraded", got)
	}
	st := c.Stats()
	if st.DegradedEntries != 1 || st.OverloadedEntries != 0 {
		t.Errorf("entries = %d/%d, want 1/0", st.DegradedEntries, st.OverloadedEntries)
	}
	if st.Sojourn != 10*time.Millisecond {
		t.Errorf("sojourn EWMA = %v, want 10ms (alpha 1)", st.Sojourn)
	}
}

func TestSustainedCollapseOverloadsAndRecoversStepwise(t *testing.T) {
	c := New(cfg())
	c.Observe(100*time.Millisecond, base) // above 8×5ms
	c.Observe(100*time.Millisecond, base.Add(100*time.Millisecond))
	if got := c.State(); got != Overloaded {
		t.Fatalf("state after sustained collapse = %v, want overloaded", got)
	}
	// Recovery: below target sustained for RecoveryInterval steps down
	// one level at a time.
	t0 := base.Add(200 * time.Millisecond)
	c.Observe(time.Millisecond, t0)
	c.Observe(time.Millisecond, t0.Add(100*time.Millisecond))
	if got := c.State(); got != Overloaded {
		t.Fatalf("state after 100ms quiet = %v, want still overloaded (recovery is 200ms)", got)
	}
	c.Observe(time.Millisecond, t0.Add(200*time.Millisecond))
	if got := c.State(); got != Degraded {
		t.Fatalf("state after one recovery interval = %v, want degraded (one step)", got)
	}
	c.Observe(time.Millisecond, t0.Add(400*time.Millisecond))
	if got := c.State(); got != Healthy {
		t.Fatalf("state after two recovery intervals = %v, want healthy", got)
	}
}

func TestEvaluateInFlightForcesOverload(t *testing.T) {
	cf := cfg()
	cf.MaxInFlight = 64
	c := New(cf)
	c.Evaluate(base, Signals{MaxShardInFlight: 63})
	if got := c.State(); got != Healthy {
		t.Fatalf("state below MaxInFlight = %v, want healthy", got)
	}
	c.Evaluate(base.Add(time.Millisecond), Signals{MaxShardInFlight: 64})
	if got := c.State(); got != Overloaded {
		t.Fatalf("state at MaxInFlight = %v, want overloaded immediately", got)
	}
	if n := c.Stats().OverloadedEntries; n != 1 {
		t.Errorf("OverloadedEntries = %d, want 1", n)
	}
}

func TestEvaluateTablePressureFloorsDegraded(t *testing.T) {
	c := New(cfg())
	c.Evaluate(base, Signals{TableOccupancy: 0.95})
	if got := c.State(); got != Degraded {
		t.Fatalf("state under table pressure = %v, want degraded", got)
	}
	// While pressure persists, quiet sojourn must not walk it back.
	c.Observe(time.Millisecond, base.Add(100*time.Millisecond))
	c.Evaluate(base.Add(300*time.Millisecond), Signals{TableOccupancy: 0.95})
	if got := c.State(); got != Degraded {
		t.Fatalf("state = %v, want degraded held by the floor", got)
	}
	// Pressure gone: normal hysteresis applies from here.
	c.Evaluate(base.Add(600*time.Millisecond), Signals{TableOccupancy: 0.1})
	if got := c.State(); got != Healthy {
		t.Fatalf("state after pressure cleared + quiet period = %v, want healthy", got)
	}
}

func TestEvaluateWriteErrorsFloorDegraded(t *testing.T) {
	c := New(cfg())
	c.Evaluate(base, Signals{WriteErrorFrac: 0.6})
	if got := c.State(); got != Degraded {
		t.Fatalf("state with 60%% write errors = %v, want degraded", got)
	}
}

func TestIdleDecayRecoversWithoutSamples(t *testing.T) {
	c := New(cfg())
	c.Observe(400*time.Millisecond, base)
	c.Observe(400*time.Millisecond, base.Add(100*time.Millisecond))
	if got := c.State(); got != Overloaded {
		t.Fatalf("state = %v, want overloaded", got)
	}
	// No further samples: Evaluate halves the EWMA each interval and
	// the machine must walk back to healthy on its own.
	now := base.Add(100 * time.Millisecond)
	for i := 0; i < 40 && c.State() != Healthy; i++ {
		now = now.Add(100 * time.Millisecond)
		c.Evaluate(now, Signals{})
	}
	if got := c.State(); got != Healthy {
		t.Fatalf("state after idle decay = %v (EWMA %v), want healthy", got, c.Stats().Sojourn)
	}
}

func TestShedProbRamp(t *testing.T) {
	c := New(cfg()) // target 5ms, hi 40ms, min 0.05
	c.Observe(time.Millisecond, base)
	if p := c.ShedProb(); p != 0.05 {
		t.Errorf("ShedProb below target = %v, want floor 0.05", p)
	}
	c.Observe(22500*time.Microsecond, base) // halfway up the ramp
	if p := c.ShedProb(); p < 0.45 || p > 0.55 {
		t.Errorf("ShedProb mid-ramp = %v, want ≈0.5", p)
	}
	c.Observe(time.Second, base)
	if p := c.ShedProb(); p != 1 {
		t.Errorf("ShedProb above overload threshold = %v, want 1", p)
	}
}

func TestProbeAdmitCadence(t *testing.T) {
	cf := cfg()
	cf.ProbeEvery = 8
	c := New(cf)
	admitted := 0
	for i := 0; i < 64; i++ {
		if c.ProbeAdmit() {
			admitted++
		}
	}
	if admitted != 8 {
		t.Errorf("admitted %d of 64 probes, want exactly 8 (1 in 8)", admitted)
	}
}

func TestDefaults(t *testing.T) {
	c := New(Config{})
	if c.cfg.Target != 5*time.Millisecond || c.cfg.Interval != 100*time.Millisecond ||
		c.cfg.RecoveryInterval != 200*time.Millisecond || c.cfg.OverloadFactor != 8 ||
		c.cfg.ShedMin != 0.05 || c.cfg.ProbeEvery != 16 || c.cfg.TablePressure != 0.9 ||
		c.cfg.Alpha != 0.125 {
		t.Errorf("defaults = %+v", c.cfg)
	}
	if cf := (Config{ShedMin: 3}).withDefaults(); cf.ShedMin != 1 {
		t.Errorf("ShedMin 3 clamps to %v, want 1", cf.ShedMin)
	}
}

// TestCryptoCostFoldsIntoSojourn pins the NTS capacity contract:
// per-request AEAD cost counts against the same target as queueing
// delay. Queue sojourn alone stays under target, crypto cost pushes
// the effective signal over it, and the controller degrades; when the
// crypto load recedes (zeros fed for plain traffic) it recovers.
func TestCryptoCostFoldsIntoSojourn(t *testing.T) {
	c := New(cfg()) // Target 5ms, Alpha 1: EWMAs track the last sample
	c.Observe(2*time.Millisecond, base)
	c.ObserveCrypto(4*time.Millisecond, base)
	st := c.Stats()
	if st.CryptoCost != 4*time.Millisecond {
		t.Fatalf("Stats.CryptoCost = %v, want 4ms", st.CryptoCost)
	}
	if st.Sojourn != 6*time.Millisecond {
		t.Fatalf("Stats.Sojourn = %v, want 6ms (2ms queue + 4ms crypto)", st.Sojourn)
	}

	// Neither component alone exceeds the 5ms target, but their sum
	// does: sustained for a full interval, the state must escalate.
	now := base
	for i := 0; i < 4; i++ {
		now = now.Add(50 * time.Millisecond)
		c.Observe(2*time.Millisecond, now)
		c.ObserveCrypto(4*time.Millisecond, now)
	}
	if got := c.State(); got != Degraded {
		t.Fatalf("state with sustained queue+crypto excess = %v, want degraded", got)
	}

	// Authenticated load stops: sampled plain requests feed zero
	// crypto cost, the effective signal falls under target, and the
	// controller walks back to healthy.
	for i := 0; i < 6; i++ {
		now = now.Add(50 * time.Millisecond)
		c.Observe(2*time.Millisecond, now)
		c.ObserveCrypto(0, now)
	}
	if got := c.Stats().CryptoCost; got != 0 {
		t.Fatalf("crypto EWMA after zero-cost samples = %v, want 0", got)
	}
	if got := c.State(); got != Healthy {
		t.Fatalf("state after crypto load receded = %v, want healthy", got)
	}
}

// TestIdleDecayHalvesCryptoCost: the idle decay that lets the queue
// estimate walk down must drain the crypto estimate too, or a burst
// of authenticated traffic would pin the server degraded after the
// burst ends.
func TestIdleDecayHalvesCryptoCost(t *testing.T) {
	c := New(cfg())
	c.Observe(time.Millisecond, base)
	c.ObserveCrypto(8*time.Millisecond, base)
	now := base
	for i := 0; i < 40 && c.Stats().CryptoCost > 0; i++ {
		now = now.Add(150 * time.Millisecond)
		c.Evaluate(now, Signals{})
	}
	if got := c.Stats().CryptoCost; got != 0 {
		t.Fatalf("crypto EWMA never decayed to 0, stuck at %v", got)
	}
}

// TestReconfigurePreservesState: a live parameter reload must not
// reset what the controller has learned — a Degraded server that gets
// its target tightened mid-incident stays Degraded, with its EWMA and
// transition counters intact, and the new target is effective
// immediately.
func TestReconfigurePreservesState(t *testing.T) {
	c := New(cfg())
	c.Observe(10*time.Millisecond, base)
	c.Observe(10*time.Millisecond, base.Add(100*time.Millisecond))
	if got := c.State(); got != Degraded {
		t.Fatalf("setup: state = %v, want degraded", got)
	}

	nc := cfg()
	nc.Target = 20 * time.Millisecond // 10ms EWMA is now under target
	c.Reconfigure(nc)
	if got := c.State(); got != Degraded {
		t.Fatalf("state after Reconfigure = %v, want degraded (reload must not reset)", got)
	}
	st := c.Stats()
	if st.DegradedEntries != 1 {
		t.Errorf("DegradedEntries = %d after reload, want 1", st.DegradedEntries)
	}
	if st.Sojourn != 10*time.Millisecond {
		t.Errorf("sojourn EWMA = %v after reload, want 10ms carried over", st.Sojourn)
	}

	// The new, looser target governs from here: the same 10ms sojourn
	// now reads as quiet, and a sustained quiet period recovers.
	t0 := base.Add(200 * time.Millisecond)
	c.Observe(10*time.Millisecond, t0)
	c.Observe(10*time.Millisecond, t0.Add(200*time.Millisecond))
	if got := c.State(); got != Healthy {
		t.Fatalf("state = %v, want healthy under the reloaded 20ms target", got)
	}
}

// TestReconfigureZeroFieldsTakeDefaults pins that Reconfigure runs the
// same defaulting as New, so a partially filled reload config cannot
// leave the controller with a zero target or interval.
func TestReconfigureZeroFieldsTakeDefaults(t *testing.T) {
	c := New(cfg())
	c.Reconfigure(Config{})
	c.mu.Lock()
	got := c.cfg
	c.mu.Unlock()
	if got.Target != 5*time.Millisecond || got.Interval != 100*time.Millisecond || got.ProbeEvery != 16 {
		t.Fatalf("reconfigured zero config = %+v, want defaults applied", got)
	}
}
