// Package overload implements admission control for a heavily loaded
// NTP serving path: a per-server health state machine (Healthy →
// Degraded → Overloaded, with hysteresis) driven by cheap signals
// sampled near the hot path.
//
// The primary signal is a sampled ingress-to-reply sojourn EWMA held
// against a configurable target, CoDel-style: the server reacts only
// when sojourn exceeds the target for a sustained interval, never to
// an instantaneous spike, and recovers only after a sustained quiet
// period. The rationale is specific to time service: queueing delay
// is uniquely poisonous to clock synchronization — a reply that sat
// in the socket queue carries a stale transmit timestamp and corrupts
// the client's offset estimate, so a late answer is worse than no
// answer. The correct overload response is therefore to shed early
// and answer fewer clients well, not to queue (Deshpande et al.,
// "Improving Network Clock Synchronization by Marking Congestion").
//
// Slow auxiliary signals — per-shard in-flight counts, write-error
// rate and rate-limit-table pressure — are folded in periodically via
// Evaluate, typically from a housekeeping goroutine.
//
// In Degraded the caller should shed probabilistically (ShedProb),
// new/unseen flows first, answering sheds with a RATE kiss-of-death
// so refusal is explicit. In Overloaded the caller should drop before
// parsing, admitting only ProbeAdmit's 1-in-N probes so sojourn
// samples keep flowing and recovery stays possible.
package overload

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is the server health state. Ordering matters: higher states
// are more degraded, and comparisons (st >= Degraded) are meaningful.
type State int32

const (
	// Healthy: every well-formed request is admitted.
	Healthy State = iota
	// Degraded: sojourn has exceeded the target for a sustained
	// interval (or a slow signal forced the floor); new flows are
	// shed probabilistically with RATE.
	Degraded
	// Overloaded: sojourn has exceeded OverloadFactor×Target for a
	// sustained interval (or in-flight work hit MaxInFlight);
	// requests are dropped before parsing, except probes.
	Overloaded
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Overloaded:
		return "overloaded"
	}
	return "unknown"
}

// Config parameterizes a Controller. The zero value of any field
// selects its default.
type Config struct {
	// Target is the sojourn EWMA the server tries to stay under
	// (default 5ms). Sojourn is measured ingress (kernel receive
	// timestamp where available) to reply.
	Target time.Duration
	// Interval is how long the EWMA must stay above Target (or the
	// overload threshold) before the state escalates — the CoDel-style
	// guard against reacting to spikes. Default 100ms.
	Interval time.Duration
	// RecoveryInterval is how long the EWMA must stay at or below
	// Target before the state steps down one level. Default
	// 2×Interval, the hysteresis that stops flapping.
	RecoveryInterval time.Duration
	// OverloadFactor scales Target into the Overloaded threshold:
	// sustained sojourn above OverloadFactor×Target escalates past
	// Degraded. Default 8; values ≤ 1 select the default.
	OverloadFactor float64
	// ShedMin floors the Degraded shed probability so shedding is
	// never cosmetic once entered (default 0.05). Values > 1 clamp
	// to 1 (shed every new flow).
	ShedMin float64
	// ProbeEvery admits 1 in this many requests while Overloaded so
	// sojourn samples keep flowing (default 16).
	ProbeEvery int
	// MaxInFlight, if positive, forces Overloaded the moment any
	// shard holds this many requests mid-handling — an instantaneous
	// saturation signal that skips the sustained-interval wait.
	MaxInFlight int
	// TablePressure is the rate-limit-table occupancy fraction that
	// floors the state at Degraded (default 0.9): a table pinned near
	// capacity means per-client state is being churned, usually by a
	// spoofed flood. Set above 1 to disable.
	TablePressure float64
	// Alpha is the sojourn EWMA weight of each new sample (default
	// 0.125).
	Alpha float64
}

func (c Config) withDefaults() Config {
	if c.Target <= 0 {
		c.Target = 5 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.RecoveryInterval <= 0 {
		c.RecoveryInterval = 2 * c.Interval
	}
	if c.OverloadFactor <= 1 {
		c.OverloadFactor = 8
	}
	if c.ShedMin <= 0 {
		c.ShedMin = 0.05
	} else if c.ShedMin > 1 {
		c.ShedMin = 1
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 16
	}
	if c.TablePressure <= 0 {
		c.TablePressure = 0.9
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.125
	}
	return c
}

// Signals are the slow auxiliary inputs folded in by Evaluate.
type Signals struct {
	// MaxShardInFlight is the largest per-shard count of requests
	// currently mid-handling.
	MaxShardInFlight int
	// TableOccupancy is the rate-limit table fill fraction (0..1);
	// 0 when rate limiting is off.
	TableOccupancy float64
	// WriteErrorFrac is the fraction of reply attempts that failed
	// at the socket since the last Evaluate (0..1).
	WriteErrorFrac float64
}

// Stats is an observable snapshot of the controller.
type Stats struct {
	State   State
	Sojourn time.Duration // current effective EWMA (queue + crypto)
	// CryptoCost is the per-request cryptographic-work EWMA folded
	// into Sojourn: with NTS enabled, AEAD verification spends server
	// time exactly like queueing does, so it must count against the
	// same target.
	CryptoCost time.Duration
	// DegradedEntries / OverloadedEntries count upward transitions
	// into each state.
	DegradedEntries   uint64
	OverloadedEntries uint64
}

// Controller is the health state machine. State() and ShedProb() are
// single atomic loads, safe on the hot path; Observe is intended to
// be called on a sample of requests (it takes a short mutex).
type Controller struct {
	cfg    Config
	state  atomic.Int32
	ewma   atomic.Int64 // queue-sojourn EWMA, nanoseconds
	cryewa atomic.Int64 // per-request crypto-cost EWMA, nanoseconds
	probe  atomic.Uint64

	mu           sync.Mutex
	aboveSince   time.Time // EWMA continuously above Target since
	aboveHiSince time.Time // EWMA continuously above the overload threshold since
	belowSince   time.Time // EWMA continuously at/below Target since
	lastSample   time.Time
	cryptoSeeded bool
	floor        State // minimum state forced by slow signals
	degradedN    uint64
	overloadedN  uint64
}

// New creates a controller; zero Config fields take defaults.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults()}
}

// State returns the current health state (one atomic load).
func (c *Controller) State() State { return State(c.state.Load()) }

// Reconfigure swaps the controller's parameters in place — a live
// reload, not a restart. Everything learned survives: the health
// state, the sojourn and crypto EWMAs, the transition counters and the
// sustained-interval timers all carry over, so a SIGHUP that tightens
// the target mid-incident does not reset an Overloaded server to
// Healthy and re-admit the flood while the machine re-learns what it
// already knew. Zero cfg fields take their defaults, exactly as in
// New.
func (c *Controller) Reconfigure(cfg Config) {
	c.mu.Lock()
	c.cfg = cfg.withDefaults()
	c.mu.Unlock()
}

// Observe feeds one sampled ingress-to-reply sojourn measurement and
// advances the state machine. now must be monotonic-ish wall time
// from the caller's clock; all sustained-interval arithmetic uses it.
func (c *Controller) Observe(sojourn time.Duration, now time.Time) {
	if sojourn < 0 {
		sojourn = 0
	}
	c.mu.Lock()
	e := time.Duration(c.ewma.Load())
	if c.lastSample.IsZero() {
		e = sojourn // seed: the first sample is the estimate
	} else {
		e += time.Duration(c.cfg.Alpha * float64(sojourn-e))
	}
	c.ewma.Store(int64(e))
	c.lastSample = now
	c.stepLocked(now)
	c.mu.Unlock()
}

// ObserveCrypto feeds the cryptographic-work duration of one sampled
// request into the crypto-cost EWMA. Callers serving mixed traffic
// must feed zero for sampled plain requests so the estimate tracks
// the real per-request average and decays when authenticated load
// recedes. The cost is folded into the effective sojourn the state
// machine sheds on: AEAD work consumes serving capacity exactly like
// queueing delay, and admission must see it before the queue builds.
func (c *Controller) ObserveCrypto(d time.Duration, now time.Time) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	e := time.Duration(c.cryewa.Load())
	if !c.cryptoSeeded {
		e = d
		c.cryptoSeeded = true
	} else {
		e += time.Duration(c.cfg.Alpha * float64(d-e))
	}
	c.cryewa.Store(int64(e))
	c.stepLocked(now)
	c.mu.Unlock()
}

// Evaluate folds the slow signals in and advances the state machine;
// call it periodically (the server's housekeeping loop does).
func (c *Controller) Evaluate(now time.Time, sig Signals) State {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.floor = Healthy
	if sig.TableOccupancy >= c.cfg.TablePressure || sig.WriteErrorFrac >= 0.5 {
		c.floor = Degraded
	}
	if c.cfg.MaxInFlight > 0 && sig.MaxShardInFlight >= c.cfg.MaxInFlight {
		// Instantaneous saturation: every worker slot is pinned, so
		// waiting out a sustained interval would just build queue.
		c.belowSince = time.Time{}
		c.setStateLocked(Overloaded)
	}
	// Idle decay: when no sojourn sample has arrived for a whole
	// interval there is no measured queue left (traffic stopped, or
	// everything is being dropped and even probes dried up); halve
	// the EWMA so the machine can walk back down instead of freezing
	// at its last overloaded estimate.
	if !c.lastSample.IsZero() && now.Sub(c.lastSample) >= c.cfg.Interval {
		c.ewma.Store(c.ewma.Load() / 2)
		c.cryewa.Store(c.cryewa.Load() / 2)
		c.lastSample = now
	}
	c.stepLocked(now)
	return State(c.state.Load())
}

// stepLocked advances the sustained-interval timers and the state.
// The signal held against Target is the effective sojourn: queue EWMA
// plus crypto-cost EWMA.
func (c *Controller) stepLocked(now time.Time) {
	e := time.Duration(c.ewma.Load() + c.cryewa.Load())
	hi := time.Duration(c.cfg.OverloadFactor * float64(c.cfg.Target))
	st := State(c.state.Load())
	if e > c.cfg.Target {
		c.belowSince = time.Time{}
		if c.aboveSince.IsZero() {
			c.aboveSince = now
		}
		if e > hi {
			if c.aboveHiSince.IsZero() {
				c.aboveHiSince = now
			}
		} else {
			c.aboveHiSince = time.Time{}
		}
		if st < Overloaded && !c.aboveHiSince.IsZero() && now.Sub(c.aboveHiSince) >= c.cfg.Interval {
			c.setStateLocked(Overloaded)
		} else if st < Degraded && now.Sub(c.aboveSince) >= c.cfg.Interval {
			c.setStateLocked(Degraded)
		}
	} else {
		c.aboveSince, c.aboveHiSince = time.Time{}, time.Time{}
		if c.belowSince.IsZero() {
			c.belowSince = now
		}
		if st > c.floor && now.Sub(c.belowSince) >= c.cfg.RecoveryInterval {
			// One level per recovery interval: Overloaded walks through
			// Degraded on the way back, re-arming the timer each step.
			c.setStateLocked(st - 1)
			c.belowSince = now
		}
	}
	if State(c.state.Load()) < c.floor {
		c.setStateLocked(c.floor)
	}
}

func (c *Controller) setStateLocked(s State) {
	old := State(c.state.Load())
	if s == old {
		return
	}
	c.state.Store(int32(s))
	if s > old {
		switch s {
		case Degraded:
			c.degradedN++
		case Overloaded:
			c.overloadedN++
		}
	}
}

// ShedProb is the probability with which a new/unseen flow should be
// shed while Degraded: a linear ramp from ShedMin at the target to 1
// at the overload threshold, so shedding deepens with the excess.
func (c *Controller) ShedProb() float64 {
	e := float64(c.ewma.Load() + c.cryewa.Load())
	t := float64(c.cfg.Target)
	hi := c.cfg.OverloadFactor * t
	p := (e - t) / (hi - t)
	if p < c.cfg.ShedMin {
		p = c.cfg.ShedMin
	}
	if p > 1 {
		p = 1
	}
	return p
}

// ProbeAdmit reports whether this request should be admitted as a
// probe while Overloaded: exactly 1 in ProbeEvery calls.
func (c *Controller) ProbeAdmit() bool {
	return c.probe.Add(1)%uint64(c.cfg.ProbeEvery) == 0
}

// Stats returns an observable snapshot.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		State:             State(c.state.Load()),
		Sojourn:           time.Duration(c.ewma.Load() + c.cryewa.Load()),
		CryptoCost:        time.Duration(c.cryewa.Load()),
		DegradedEntries:   c.degradedN,
		OverloadedEntries: c.overloadedN,
	}
}
