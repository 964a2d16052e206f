package discipline

import (
	"errors"
	"testing"
	"time"
)

// recAdjuster records every Step/AdjustFreq and can be made to fail.
type recAdjuster struct {
	steps   []time.Duration
	freqs   []float64
	stepErr error
	freqErr error
}

func (r *recAdjuster) Step(d time.Duration) error {
	if r.stepErr != nil {
		return r.stepErr
	}
	r.steps = append(r.steps, d)
	return nil
}

func (r *recAdjuster) AdjustFreq(f float64) error {
	if r.freqErr != nil {
		return r.freqErr
	}
	r.freqs = append(r.freqs, f)
	return nil
}

func (r *recAdjuster) total() time.Duration {
	var t time.Duration
	for _, s := range r.steps {
		t += s
	}
	return t
}

var epoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

func TestStepVsSlewThreshold(t *testing.T) {
	adj := &recAdjuster{}
	d := New(adj, Config{StepThreshold: 100 * time.Millisecond, SlewGain: 0.5})

	// Below threshold: slewed at half gain.
	res := d.Apply(80*time.Millisecond, epoch)
	if res.Action != ActionSlewed || res.Applied != 40*time.Millisecond || res.Err != nil {
		t.Fatalf("slew result = %+v, want slewed 40ms", res)
	}
	// Above threshold: stepped in full.
	res = d.Apply(-300*time.Millisecond, epoch)
	if res.Action != ActionStepped || res.Applied != -300*time.Millisecond {
		t.Fatalf("step result = %+v, want stepped -300ms", res)
	}
	if len(adj.steps) != 2 || adj.steps[0] != 40*time.Millisecond || adj.steps[1] != -300*time.Millisecond {
		t.Fatalf("adjuster saw %v", adj.steps)
	}
	if d.State() != StateSync {
		t.Fatalf("state = %v, want sync", d.State())
	}
}

func TestSlewGainDefaultAppliesFull(t *testing.T) {
	adj := &recAdjuster{}
	d := New(adj, Config{})
	res := d.Apply(50*time.Millisecond, epoch)
	if res.Action != ActionSlewed || res.Applied != 50*time.Millisecond {
		t.Fatalf("result = %+v, want full 50ms slew at default gain 1", res)
	}
}

func TestPanicGateArmsAfterFirstSync(t *testing.T) {
	adj := &recAdjuster{}
	d := New(adj, Config{PanicThreshold: time.Second})

	// Cold: a huge first correction is allowed (initial sync).
	res := d.Apply(90*time.Second, epoch)
	if res.Action != ActionStepped {
		t.Fatalf("cold big step result = %+v, want stepped", res)
	}
	// Synced: the same jump is now refused and the clock untouched.
	before := len(adj.steps)
	res = d.Apply(90*time.Second, epoch)
	if res.Action != ActionPanic || res.Applied != 0 {
		t.Fatalf("synced big step result = %+v, want panic", res)
	}
	if len(adj.steps) != before {
		t.Fatal("panic still touched the adjuster")
	}
	if d.ConsecutivePanics() != 1 {
		t.Fatalf("panics = %d, want 1", d.ConsecutivePanics())
	}
	// A sane correction clears the panic streak.
	if res := d.Apply(5*time.Millisecond, epoch); res.Action == ActionPanic {
		t.Fatalf("sane offset refused: %+v", res)
	}
	if d.ConsecutivePanics() != 0 {
		t.Fatalf("panics = %d after accepted sample, want 0", d.ConsecutivePanics())
	}
}

func TestPanicDisabledByNegativeThreshold(t *testing.T) {
	adj := &recAdjuster{}
	d := New(adj, Config{PanicThreshold: -1})
	d.Apply(time.Millisecond, epoch)
	if res := d.Apply(time.Hour, epoch); res.Action != ActionStepped {
		t.Fatalf("result = %+v, want stepped with panic disabled", res)
	}
}

func TestDesyncDisarmsPanicGate(t *testing.T) {
	d := New(&recAdjuster{}, Config{PanicThreshold: time.Second})
	d.Apply(time.Millisecond, epoch)
	d.Desync()
	if d.State() != StateCold {
		t.Fatalf("state = %v after Desync, want cold", d.State())
	}
	if res := d.Apply(time.Minute, epoch); res.Action != ActionStepped {
		t.Fatalf("post-desync big step = %+v, want stepped", res)
	}
}

func TestFreqClampShared(t *testing.T) {
	adj := &recAdjuster{}
	d := New(adj, Config{})
	applied, err := d.SetFreq(900e-6)
	if err != nil || applied != MaxFreq {
		t.Fatalf("SetFreq(900ppm) = %v, %v; want clamp to %v", applied, err, MaxFreq)
	}
	applied, _ = d.SetFreq(-900e-6)
	if applied != -MaxFreq {
		t.Fatalf("SetFreq(-900ppm) = %v, want -MaxFreq", applied)
	}
	applied, _ = d.SetFreq(42e-6)
	if applied != 42e-6 {
		t.Fatalf("SetFreq(42ppm) = %v, want passthrough", applied)
	}
	if f, ok := d.Freq(); !ok || f != 42e-6 {
		t.Fatalf("Freq() = %v, %v", f, ok)
	}
}

func TestSetFreqErrorLeavesState(t *testing.T) {
	adj := &recAdjuster{freqErr: errors.New("EPERM")}
	d := New(adj, Config{})
	if _, err := d.SetFreq(10e-6); err == nil {
		t.Fatal("want error surfaced")
	}
	if _, ok := d.Freq(); ok {
		t.Fatal("failed SetFreq recorded a frequency")
	}
}

func TestApplyErrorSurfacedAndStateUnchanged(t *testing.T) {
	adj := &recAdjuster{stepErr: errors.New("EPERM")}
	d := New(adj, Config{})
	res := d.Apply(10*time.Millisecond, epoch)
	if res.Err == nil || res.Applied != 0 {
		t.Fatalf("result = %+v, want error and nothing applied", res)
	}
	if d.State() != StateCold {
		t.Fatalf("state advanced to %v on a failed application", d.State())
	}
}

func TestHoldoverLifecycle(t *testing.T) {
	adj := &recAdjuster{}
	d := New(adj, Config{PanicThreshold: time.Second, HoldoverDispPPM: 100})

	// Cold disciplines have nothing to hold.
	if d.EnterHoldover(epoch) {
		t.Fatal("cold EnterHoldover succeeded")
	}
	d.Apply(time.Millisecond, epoch)
	if _, err := d.SetFreq(30e-6); err != nil {
		t.Fatal(err)
	}
	nFreqs := len(adj.freqs)
	if !d.EnterHoldover(epoch) {
		t.Fatal("EnterHoldover from sync failed")
	}
	if d.State() != StateHoldover {
		t.Fatalf("state = %v, want holdover", d.State())
	}
	// The last good frequency was re-asserted.
	if len(adj.freqs) != nFreqs+1 || adj.freqs[len(adj.freqs)-1] != 30e-6 {
		t.Fatalf("holdover did not re-assert freq: %v", adj.freqs)
	}
	// Re-entering keeps the original start.
	if d.EnterHoldover(epoch.Add(time.Minute)) {
		t.Fatal("re-entry restarted holdover")
	}

	// Uncertainty ages at 100 ppm: 1000 s → 100 ms.
	later := epoch.Add(1000 * time.Second)
	if u := d.Uncertainty(later); u < 99*time.Millisecond || u > 101*time.Millisecond {
		t.Fatalf("uncertainty after 1000s at 100ppm = %v, want ≈100ms", u)
	}

	// The panic gate widens by the uncertainty: 1s + 100ms.
	if res := d.Apply(1050*time.Millisecond, later); res.Action != ActionStepped {
		t.Fatalf("in-budget holdover step = %+v, want stepped", res)
	}
	if d.State() != StateSync {
		t.Fatalf("state after holdover exit = %v, want sync", d.State())
	}
}

func TestHoldoverExitFlag(t *testing.T) {
	d := New(&recAdjuster{}, Config{})
	d.Apply(time.Millisecond, epoch)
	d.EnterHoldover(epoch)
	r := d.Apply(2*time.Millisecond, epoch.Add(time.Minute))
	if !r.ExitedHoldover {
		t.Fatalf("result = %+v, want ExitedHoldover", r)
	}
	r = d.Apply(2*time.Millisecond, epoch.Add(2*time.Minute))
	if r.ExitedHoldover {
		t.Fatal("ExitedHoldover set outside holdover")
	}
}

func TestHoldoverPanicStillRefusesBeyondBudget(t *testing.T) {
	d := New(&recAdjuster{}, Config{PanicThreshold: time.Second, HoldoverDispPPM: 10})
	d.Apply(time.Millisecond, epoch)
	d.EnterHoldover(epoch)
	// 100 s at 10 ppm → 1 ms of budget; a 10 s offset is far outside.
	r := d.Apply(10*time.Second, epoch.Add(100*time.Second))
	if r.Action != ActionPanic {
		t.Fatalf("result = %+v, want panic in holdover", r)
	}
}

func TestHoldoverExpiresToCold(t *testing.T) {
	d := New(&recAdjuster{}, Config{PanicThreshold: time.Second, HoldoverMax: 10 * time.Minute})
	d.Apply(time.Millisecond, epoch)
	d.EnterHoldover(epoch)
	// Past HoldoverMax the state is cold, so a giant step is allowed
	// again (the clock may be anywhere after a long blackout).
	r := d.Apply(time.Hour, epoch.Add(11*time.Minute))
	if r.Action != ActionStepped {
		t.Fatalf("post-expiry result = %+v, want stepped (cold)", r)
	}
}

func TestObserveTimesDetectsSuspend(t *testing.T) {
	d := New(&recAdjuster{}, Config{})
	d.Apply(time.Millisecond, epoch)

	if _, resumed := d.ObserveTimes(epoch, 0); resumed {
		t.Fatal("first observation flagged a resume")
	}
	// Wall and mono advance together: no divergence.
	if jump, resumed := d.ObserveTimes(epoch.Add(30*time.Second), 30*time.Second); resumed || jump != 0 {
		t.Fatalf("lockstep advance: jump=%v resumed=%v", jump, resumed)
	}
	// Suspend: wall advances 90 s, mono only 1 s.
	jump, resumed := d.ObserveTimes(epoch.Add(2*time.Minute), 31*time.Second)
	if !resumed || jump != 89*time.Second {
		t.Fatalf("suspend: jump=%v resumed=%v, want 89s resume", jump, resumed)
	}
	if d.State() != StateCold {
		t.Fatalf("state after resume = %v, want cold", d.State())
	}
}

func TestObserveTimesCompensatesOwnSteps(t *testing.T) {
	d := New(&recAdjuster{}, Config{})
	d.ObserveTimes(epoch, 0)
	// The discipline steps the clock 10 s itself (cold, so allowed).
	r := d.Apply(10*time.Second, epoch)
	if r.Action != ActionStepped {
		t.Fatalf("setup step = %+v", r)
	}
	// Wall shows mono's advance plus our own step: not a suspend.
	jump, resumed := d.ObserveTimes(epoch.Add(40*time.Second), 30*time.Second)
	if resumed || jump != 0 {
		t.Fatalf("self-step read as suspend: jump=%v resumed=%v", jump, resumed)
	}
}

func TestObserveTimesNegativeJump(t *testing.T) {
	d := New(&recAdjuster{}, Config{})
	d.Apply(time.Millisecond, epoch)
	d.ObserveTimes(epoch, 0)
	// An external actor stepped the wall clock backwards 30 s.
	jump, resumed := d.ObserveTimes(epoch.Add(-20*time.Second), 10*time.Second)
	if !resumed || jump != -30*time.Second {
		t.Fatalf("backward step: jump=%v resumed=%v, want -30s resume", jump, resumed)
	}
}

func TestZeroOffsetMarksSync(t *testing.T) {
	d := New(&recAdjuster{}, Config{})
	if res := d.Apply(0, epoch); res.Action != ActionNone {
		t.Fatalf("zero offset result = %+v", res)
	}
	if d.State() != StateSync {
		t.Fatalf("state = %v, want sync after perfect sample", d.State())
	}
}

func TestStatusString(t *testing.T) {
	d := New(&recAdjuster{}, Config{HoldoverDispPPM: 15})
	d.Apply(time.Millisecond, epoch)
	d.SetFreq(12e-6)
	d.EnterHoldover(epoch)
	st := d.Status(epoch.Add(time.Hour))
	if st.State != StateHoldover || st.HoldoverFor != time.Hour || !st.HaveFreq {
		t.Fatalf("status = %+v", st)
	}
	if s := st.String(); s == "" {
		t.Fatal("empty status string")
	}
}
