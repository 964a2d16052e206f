// Package discipline is the single gate through which every clock
// correction flows. Raw offsets from the measurement/filter pipeline
// are never applied to a sysclock.Adjuster directly; they pass through
// a Discipline, which decides between slewing (small offsets, applied
// gradually), stepping (offsets beyond the step threshold), and
// refusing (offsets beyond the panic threshold after the first
// synchronization — implausible jumps that more likely indicate a
// broken source, an asymmetric path, or a suspend we failed to detect
// than a genuinely wrong clock).
//
// The discipline also owns two mobility-critical behaviours:
//
//   - Holdover: when the caller reports total source blackout (every
//     upstream dark or selection persistently failing), the discipline
//     keeps the last good frequency correction applied and ages an
//     uncertainty bound at HoldoverDispPPM. The panic gate widens by
//     that bound, so a clock that legitimately drifted during a long
//     blackout can still be corrected on recovery. Past HoldoverMax
//     the state degrades to cold and the next sample may step freely.
//
//   - Suspend/resume detection: the wall clock advances during a
//     system suspend but CLOCK_MONOTONIC does not, so a resume shows
//     up as wall-vs-monotonic divergence. Callers feed periodic
//     (wall, monotonic) readings to ObserveTimes; a divergence beyond
//     suspendThreshold invalidates the discipline's sync state so the
//     caller can re-warm-up instead of "correcting" a giant offset
//     produced by a stale in-flight sample. Steps applied through the
//     discipline itself are compensated, so a legitimate correction
//     does not read as a suspend.
//
// The ±MaxFreqPPM cumulative frequency clamp here is shared with
// internal/driftfile, so a persisted frequency estimate can never
// round-trip into an implausible kernel adjustment.
package discipline

import (
	"fmt"
	"sync"
	"time"

	"mntp/internal/sysclock"
)

// MaxFreqPPM is the largest cumulative frequency correction the
// discipline will apply, in parts per million. It matches ntpd's
// 500 ppm clamp and is shared with internal/driftfile's load-time
// clamp: no sane crystal needs more, and a drift file claiming more
// is corrupt.
const MaxFreqPPM = 500

// MaxFreq is MaxFreqPPM expressed in seconds per second.
const MaxFreq = MaxFreqPPM * 1e-6

// suspendThreshold is the wall-vs-monotonic divergence between
// consecutive ObserveTimes calls that is read as a suspend/resume (or
// an external clock step).
const suspendThreshold = 2 * time.Second

// Config are the discipline's tunables. The zero value selects
// defaults comparable to ntpd's.
type Config struct {
	// StepThreshold separates slewing from stepping: offsets at or
	// below it are slewed (applied scaled by SlewGain), larger ones
	// are stepped at once. Default 128 ms (ntpd's STEPT).
	StepThreshold time.Duration
	// PanicThreshold refuses implausible corrections: once the
	// discipline has synchronized, an offset beyond it is rejected
	// with ActionPanic instead of being applied. Default 10 s;
	// negative disables the gate. (ntpd's PANICT is 1000 s and makes
	// the daemon exit; a mobile client must instead survive, report,
	// and wait for evidence — a re-warm-up — before believing a jump.)
	PanicThreshold time.Duration
	// SlewGain scales offsets below the step threshold before they
	// are applied, amortizing small corrections across successive
	// samples. Default 1 (apply in full). ntpclient uses 0.5.
	SlewGain float64
	// HoldoverMax bounds how long holdover keeps the sync state: past
	// it the discipline degrades to cold, dropping the panic gate so
	// that recovery after a very long blackout can step freely.
	// Default 1 h.
	HoldoverMax time.Duration
	// HoldoverDispPPM is the rate, in parts per million, at which the
	// holdover uncertainty bound grows: it models how fast the local
	// oscillator may wander from the last good frequency estimate.
	// Default 15 ppm (commodity crystal residual after correction).
	// No binary sets it: the holdover tests raise it so the bound's
	// growth shows within a short run.
	HoldoverDispPPM float64
}

func (c *Config) applyDefaults() {
	if c.StepThreshold == 0 {
		c.StepThreshold = 128 * time.Millisecond
	}
	if c.PanicThreshold == 0 {
		c.PanicThreshold = 10 * time.Second
	}
	if c.SlewGain == 0 {
		c.SlewGain = 1
	}
	if c.HoldoverMax == 0 {
		c.HoldoverMax = time.Hour
	}
	if c.HoldoverDispPPM == 0 {
		c.HoldoverDispPPM = 15
	}
}

// State is the discipline's synchronization state.
type State int

const (
	// StateCold: never synchronized (or desynchronized by a suspend,
	// a network change, or an expired holdover). The panic gate is
	// off — the first correction may be arbitrarily large.
	StateCold State = iota
	// StateSync: at least one correction has been applied since the
	// last desync; the panic gate is armed.
	StateSync
	// StateHoldover: sources are dark; the last good frequency keeps
	// the clock disciplined while an uncertainty bound ages.
	StateHoldover
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case StateCold:
		return "cold"
	case StateSync:
		return "sync"
	case StateHoldover:
		return "holdover"
	default:
		return "unknown"
	}
}

// Action says what Apply did with an offset.
type Action int

const (
	// ActionNone: nothing was applied (zero offset).
	ActionNone Action = iota
	// ActionSlewed: the offset was below the step threshold and was
	// applied scaled by SlewGain.
	ActionSlewed
	// ActionStepped: the offset exceeded the step threshold and was
	// applied in full at once.
	ActionStepped
	// ActionPanic: the offset exceeded the panic threshold and was
	// refused. The clock was not touched.
	ActionPanic
)

// String renders the action name.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionSlewed:
		return "slewed"
	case ActionStepped:
		return "stepped"
	case ActionPanic:
		return "panic"
	default:
		return "unknown"
	}
}

// Result reports what Apply decided and did.
type Result struct {
	// Action classifies the decision.
	Action Action
	// Applied is the correction actually given to the adjuster
	// (the full offset when stepped, the SlewGain fraction when
	// slewed, zero on panic or error).
	Applied time.Duration
	// ExitedHoldover is set when this application ended a holdover.
	ExitedHoldover bool
	// Err is the adjuster error, if the chosen correction failed.
	// The discipline state is unchanged on error.
	Err error
}

// Status is an observable snapshot of the discipline.
type Status struct {
	State State
	// Freq is the cumulative frequency correction (s/s) and HaveFreq
	// whether one has ever been applied.
	Freq     float64
	HaveFreq bool
	// HoldoverFor is how long the discipline has been in holdover
	// (zero otherwise), and Uncertainty the aged offset bound.
	HoldoverFor time.Duration
	Uncertainty time.Duration
	// ConsecutivePanics counts back-to-back refused corrections; any
	// applied correction resets it.
	ConsecutivePanics int
}

// String renders a one-line status.
func (s Status) String() string {
	base := fmt.Sprintf("discipline %s freq=%+.1fppm", s.State, s.Freq*1e6)
	if s.State == StateHoldover {
		base += fmt.Sprintf(" holdover=%v ±%v", s.HoldoverFor.Round(time.Second), s.Uncertainty.Round(time.Millisecond))
	}
	if s.ConsecutivePanics > 0 {
		base += fmt.Sprintf(" panics=%d", s.ConsecutivePanics)
	}
	return base
}

// Discipline gates clock corrections. Safe for concurrent use.
type Discipline struct {
	mu  sync.Mutex
	adj sysclock.Adjuster
	cfg Config

	state         State
	freq          float64
	haveFreq      bool
	holdoverSince time.Time
	panics        int

	// Suspend detection: last (wall, mono) observation, plus the sum
	// of steps we applied ourselves since then — self-inflicted
	// wall-clock jumps must not read as suspends.
	haveObs   bool
	lastWall  time.Time
	lastMono  time.Duration
	stepAccum time.Duration
}

// New creates a discipline gating the given adjuster. A nil adjuster
// is replaced by sysclock.Noop (measurement-only mode: decisions are
// still made and reported, nothing moves the clock).
func New(adj sysclock.Adjuster, cfg Config) *Discipline {
	cfg.applyDefaults()
	if adj == nil {
		adj = sysclock.Noop{}
	}
	return &Discipline{adj: adj, cfg: cfg}
}

// Apply offers an offset correction at the given time. It decides
// slew/step/panic, applies the chosen correction through the
// adjuster, and updates the sync state. now is the caller's clock
// reading, used only for holdover aging.
func (d *Discipline) Apply(offset time.Duration, now time.Time) Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireHoldoverLocked(now)

	if offset == 0 {
		// A perfect sample still proves synchronization.
		res := Result{Action: ActionNone}
		res.ExitedHoldover = d.markSyncLocked()
		return res
	}

	// Panic gate: armed once synchronized. In holdover the limit
	// widens by the aged uncertainty — the clock may legitimately
	// have wandered that far since the sources went dark.
	if d.state != StateCold && d.cfg.PanicThreshold > 0 {
		limit := d.cfg.PanicThreshold
		if d.state == StateHoldover {
			limit += d.uncertaintyLocked(now)
		}
		if offset > limit || offset < -limit {
			d.panics++
			return Result{Action: ActionPanic}
		}
	}

	action := ActionSlewed
	applied := offset
	if offset > d.cfg.StepThreshold || offset < -d.cfg.StepThreshold {
		action = ActionStepped
	} else if d.cfg.SlewGain != 1 {
		applied = time.Duration(float64(offset) * d.cfg.SlewGain)
		if applied == 0 {
			res := Result{Action: ActionNone}
			res.ExitedHoldover = d.markSyncLocked()
			return res
		}
	}
	if err := d.adj.Step(applied); err != nil {
		return Result{Action: action, Err: err}
	}
	d.stepAccum += applied
	res := Result{Action: action, Applied: applied}
	res.ExitedHoldover = d.markSyncLocked()
	return res
}

// markSyncLocked transitions to StateSync after a successful
// application, reporting whether that ended a holdover.
func (d *Discipline) markSyncLocked() (exitedHoldover bool) {
	exitedHoldover = d.state == StateHoldover
	d.state = StateSync
	d.holdoverSince = time.Time{}
	d.panics = 0
	return exitedHoldover
}

// expireHoldoverLocked degrades an over-aged holdover to cold.
func (d *Discipline) expireHoldoverLocked(now time.Time) {
	if d.state == StateHoldover && now.Sub(d.holdoverSince) > d.cfg.HoldoverMax {
		d.state = StateCold
		d.holdoverSince = time.Time{}
	}
}

// SetFreq sets the cumulative frequency correction, clamped to
// ±MaxFreq, and returns the value actually applied. On adjuster
// error the stored frequency is unchanged.
func (d *Discipline) SetFreq(f float64) (applied float64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f > MaxFreq {
		f = MaxFreq
	} else if f < -MaxFreq {
		f = -MaxFreq
	}
	if err := d.adj.AdjustFreq(f); err != nil {
		return d.freq, err
	}
	d.freq = f
	d.haveFreq = true
	return f, nil
}

// Freq returns the cumulative frequency correction and whether one
// has been applied.
func (d *Discipline) Freq() (float64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.freq, d.haveFreq
}

// EnterHoldover moves a synchronized discipline into holdover,
// re-asserting the last good frequency correction so the clock keeps
// free-running on the best available estimate. It reports whether
// the transition happened: a cold discipline has no state worth
// holding and an existing holdover keeps its original start (so the
// uncertainty bound ages from the true beginning of the blackout).
func (d *Discipline) EnterHoldover(now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != StateSync {
		return false
	}
	d.state = StateHoldover
	d.holdoverSince = now
	if d.haveFreq {
		// Best effort: the frequency is normally still in effect, but
		// re-asserting it makes holdover self-healing after an
		// adjuster hiccup.
		_ = d.adj.AdjustFreq(d.freq)
	}
	return true
}

// Desync drops the discipline back to cold: the next correction may
// be arbitrarily large. Called after a detected suspend or any other
// event that invalidates the synchronization history. The frequency
// estimate survives — oscillator behaviour does not change because
// the device slept or roamed.
func (d *Discipline) Desync() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.state = StateCold
	d.holdoverSince = time.Time{}
	d.panics = 0
}

// ObserveTimes feeds one paired (wall, monotonic) reading for
// suspend/resume detection and returns the measured divergence since
// the previous reading. A divergence beyond suspendThreshold — after
// compensating for steps the discipline itself applied — is reported
// as resumed=true and desynchronizes the discipline: wall time moved
// without monotonic time following (suspend, external step), so any
// in-flight sample and the panic gate's history are both invalid.
func (d *Discipline) ObserveTimes(wall time.Time, mono time.Duration) (jump time.Duration, resumed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.haveObs {
		d.haveObs = true
		d.lastWall, d.lastMono = wall, mono
		d.stepAccum = 0
		return 0, false
	}
	dWall := wall.Sub(d.lastWall)
	dMono := mono - d.lastMono
	jump = dWall - dMono - d.stepAccum
	d.lastWall, d.lastMono = wall, mono
	d.stepAccum = 0
	if jump > suspendThreshold || jump < -suspendThreshold {
		d.state = StateCold
		d.holdoverSince = time.Time{}
		d.panics = 0
		return jump, true
	}
	return jump, false
}

// State returns the current synchronization state.
func (d *Discipline) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// ConsecutivePanics returns how many corrections in a row were
// refused by the panic gate.
func (d *Discipline) ConsecutivePanics() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.panics
}

// Uncertainty returns the aged holdover offset bound: how far the
// clock may plausibly have wandered since sources went dark. Zero
// outside holdover.
func (d *Discipline) Uncertainty(now time.Time) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.uncertaintyLocked(now)
}

func (d *Discipline) uncertaintyLocked(now time.Time) time.Duration {
	if d.state != StateHoldover {
		return 0
	}
	elapsed := now.Sub(d.holdoverSince)
	if elapsed < 0 {
		return 0
	}
	return time.Duration(elapsed.Seconds() * d.cfg.HoldoverDispPPM * 1e-6 * float64(time.Second))
}

// Status returns an observable snapshot.
func (d *Discipline) Status(now time.Time) Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Status{
		State: d.state, Freq: d.freq, HaveFreq: d.haveFreq,
		ConsecutivePanics: d.panics,
	}
	if d.state == StateHoldover {
		st.HoldoverFor = now.Sub(d.holdoverSince)
		st.Uncertainty = d.uncertaintyLocked(now)
	}
	return st
}
