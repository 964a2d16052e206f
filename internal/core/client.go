package core

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"mntp/internal/clock"
	"mntp/internal/discipline"
	"mntp/internal/exchange"
	"mntp/internal/hints"
	"mntp/internal/sources"
	"mntp/internal/sysclock"
	"mntp/internal/trend"
)

// Params are MNTP's tunables: the four timing parameters of
// Algorithm 1 (the subject of the §5.3 tuner study), the source and
// discipline settings a deployment varies, and the ablation switches
// used by the evaluation. The channel thresholds are the paper's §4.2
// baselines (hints.Default) and requests are NTPv4.
type Params struct {
	// WarmupPeriod is the duration of the warm-up phase.
	WarmupPeriod time.Duration
	// WarmupWaitTime is the interval between warm-up requests.
	WarmupWaitTime time.Duration
	// RegularWaitTime is the interval between regular-phase requests.
	RegularWaitTime time.Duration
	// ResetPeriod is the total duration of warm-up plus regular
	// phases; when it elapses the algorithm restarts at step 1.
	ResetPeriod time.Duration

	// WarmupServers are the multiple references of the warm-up phase
	// (the paper uses 0/1/3.pool.ntp.org).
	WarmupServers []string
	// RegularServer is the single reference of the regular phase.
	RegularServer string
	// HintPollInterval is how long to wait before re-checking an
	// unfavorable channel (default 1 s).
	HintPollInterval time.Duration
	// Estimator selects the trend estimator the filter fits offsets
	// against: trend.KindLeastSquares (the paper's §4.2 fit, the
	// default), trend.KindTheilSen or trend.KindLAD (the robust
	// alternatives — see internal/trend and the DESIGN.md bake-off).
	Estimator trend.Kind
	// EstimatorWindow bounds the robust estimators' sample history
	// (default trend.DefaultWindow; least squares is unbounded and
	// ignores it).
	EstimatorWindow int
	// Parallelism bounds the warm-up fan-out concurrency through the
	// source pool. The default 1 queries serially in slot order,
	// which is required when the transport is bound to a virtual-time
	// process (netsim); real-UDP deployments raise it.
	Parallelism int
	// ExchangeTimeout is a wall-clock per-exchange deadline enforced
	// by the source pool on top of the transport's own timeout (0 =
	// rely on the transport). Leave 0 in virtual-time simulations.
	ExchangeTimeout time.Duration
	// KoDHoldDown is the base hold-down applied to a source that
	// answers with kiss-of-death (default 1 h, doubling per repeat).
	KoDHoldDown time.Duration
	// FailoverTries is how many additional ranked sources a regular
	// round may try after a failed exchange (default 0: failover then
	// happens across rounds, as the failed source's score drops).
	FailoverTries int
	// PollJitter randomizes every phase cadence by ± this fraction
	// (default DefaultPollJitter). A fleet of clients polling a shared
	// pool on identical fixed intervals phase-locks after any
	// synchronizing event (a regional outage, a common cold start) and
	// then hits the servers in lockstep forever — the thundering-herd
	// failure mode the population engine (internal/population)
	// reproduces. Per-client random jitter diffuses the phases.
	PollJitter float64
	// DisablePollJitter pins the exact cadence, for
	// determinism-sensitive tests and paper-figure reproductions.
	DisablePollJitter bool
	// JitterSeed seeds the poll-jitter randomness (0 selects a fixed
	// default, so simulations stay reproducible; real deployments
	// should seed per device — see cmd/mntp).
	JitterSeed int64

	// StepThreshold separates slewed from stepped corrections in the
	// clock discipline (default 128 ms, ntpd's STEPT). See
	// internal/discipline.
	StepThreshold time.Duration
	// PanicThreshold refuses implausible corrections once
	// synchronized, emitting EventPanicStep instead of applying them
	// (default 10 s; negative disables the gate).
	PanicThreshold time.Duration
	// HoldoverMax bounds how long holdover retains the sync state
	// before degrading to cold (default 1 h).
	HoldoverMax time.Duration
	// HoldoverAfter is how many consecutive sample-less rounds (total
	// blackout or persistent selection failure) put the discipline
	// into holdover (default 3).
	HoldoverAfter int

	// DisableDriftCorrection skips correctSystemClockDrift — the
	// paper's head-to-head baseline experiments (§5.1) switch drift
	// correction off.
	DisableDriftCorrection bool
	// DisableClockUpdates makes MNTP measurement-only: accepted
	// offsets are reported but never applied to the clock (the mode
	// the paper's §5.1 comparisons run in). Forced on when the client
	// is constructed without an adjuster.
	DisableClockUpdates bool
	// DisableGating sends requests regardless of channel state
	// (ablation: isolates the filter's contribution).
	DisableGating bool
	// DisableFilter accepts every offset (ablation: isolates the
	// gating's contribution).
	DisableFilter bool
	// DisableFalseTickerRejection keeps every warm-up source
	// (ablation).
	DisableFalseTickerRejection bool
}

// DefaultParams returns the configuration of the paper's baseline
// evaluation (§5.1): requests every 5 s for head-to-head comparison,
// with configuration 2 of Table 2 providing the phase structure.
func DefaultParams(pool string) Params {
	return Params{
		WarmupPeriod:    40 * time.Minute,
		WarmupWaitTime:  15 * time.Second,
		RegularWaitTime: 15 * time.Minute,
		ResetPeriod:     240 * time.Minute,
		WarmupServers:   []string{pool, pool, pool},
		RegularServer:   pool,
	}
}

func (p *Params) applyDefaults() {
	if p.HintPollInterval == 0 {
		p.HintPollInterval = time.Second
	}
	if p.Estimator == "" {
		p.Estimator = trend.KindLeastSquares
	}
	if p.EstimatorWindow == 0 {
		p.EstimatorWindow = trend.DefaultWindow
	}
	if p.HoldoverAfter == 0 {
		p.HoldoverAfter = 3
	}
	if p.PollJitter == 0 {
		p.PollJitter = DefaultPollJitter
	}
	if p.PollJitter > maxPollJitter {
		p.PollJitter = maxPollJitter
	}
}

// ResidualFloor is the filter's minimum tolerated prediction error,
// and MinTrendSamples how many samples it accepts unconditionally
// before gating. The tuner's offline replay builds its filters from
// the same two values.
const (
	ResidualFloor   = 3 * time.Millisecond
	MinTrendSamples = 3
)

// DefaultPollJitter is the default ± cadence randomization fraction.
// 10% is enough to diffuse a phase-locked fleet within a handful of
// rounds while leaving the mean request budget unchanged.
const DefaultPollJitter = 0.1

// maxPollJitter caps the randomization so a jittered wait can never
// collapse to zero (busy-polling the pool) or double the cadence.
const maxPollJitter = 0.5

// Phase identifies which part of Algorithm 1 produced an event.
type Phase int

const (
	// PhaseWarmup is steps 4–14 (multi-source, no clock updates).
	PhaseWarmup Phase = iota
	// PhaseRegular is steps 16–26 (single source, clock updates).
	PhaseRegular
)

// String renders the phase name.
func (p Phase) String() string {
	if p == PhaseWarmup {
		return "warmup"
	}
	return "regular"
}

// EventKind classifies what happened to one synchronization attempt.
type EventKind int

const (
	// EventAccepted: the offset passed the filter (and, in the
	// regular phase, was applied to the clock).
	EventAccepted EventKind = iota
	// EventRejected: the filter discarded the offset as an outlier.
	EventRejected
	// EventDeferred: the channel was unfavorable; no request was sent.
	EventDeferred
	// EventQueryFailed: the request was sent but no valid reply
	// arrived (loss/timeout/KoD).
	EventQueryFailed
	// EventFalseTicker: a warm-up source was rejected as a false
	// ticker (one event per rejected source).
	EventFalseTicker
	// EventDriftCorrected: the regular phase applied a frequency
	// correction from the estimated drift.
	EventDriftCorrected
	// EventKoD: the source answered with a kiss-of-death code; the
	// pool put it into exponential hold-down and it will not be
	// queried again until the hold-down expires. Distinct from
	// EventQueryFailed so rate-limited sources are never retried as
	// if the loss were transient (mirroring internal/sntp's
	// immediate retry abort).
	EventKoD
	// EventDropped: a reply arrived but the sample was discarded
	// because the channel degraded while the exchange was in flight.
	// Unlike EventDeferred, the request was already spent — the two
	// kinds keep the emitted events consistent with the message
	// counts of the §5.1 comparisons.
	EventDropped
	// EventAdjustError: the system-clock adjuster refused a step or
	// frequency correction (EPERM on an unprivileged host, a kernel
	// rejecting an out-of-range adjtimex). The offset survives in the
	// filter but the clock was not moved — previously this failure
	// was silently discarded.
	EventAdjustError
	// EventHoldover: the source pool went dark (or selection failed)
	// for HoldoverAfter consecutive rounds; the discipline entered
	// holdover, free-running on the last good frequency estimate.
	EventHoldover
	// EventPanicStep: an accepted offset exceeded the panic threshold
	// and the discipline refused to apply it. Offset carries the
	// refused correction.
	EventPanicStep
	// EventResumed: wall-vs-monotonic divergence revealed a
	// suspend/resume (or an external clock step); in-flight samples
	// were invalidated and the client restarts with a fresh warm-up.
	// Offset carries the detected jump.
	EventResumed
	// EventNetworkChanged: the NetworkChanged hook fired; per-source
	// path health was reset and the client re-probes on a jittered
	// exponential backoff.
	EventNetworkChanged
)

// String renders the event kind.
func (k EventKind) String() string {
	switch k {
	case EventAccepted:
		return "accepted"
	case EventRejected:
		return "rejected"
	case EventDeferred:
		return "deferred"
	case EventQueryFailed:
		return "query-failed"
	case EventFalseTicker:
		return "false-ticker"
	case EventDriftCorrected:
		return "drift-corrected"
	case EventKoD:
		return "kod"
	case EventDropped:
		return "dropped"
	case EventAdjustError:
		return "adjust-error"
	case EventHoldover:
		return "holdover"
	case EventPanicStep:
		return "panic-step"
	case EventResumed:
		return "resumed"
	case EventNetworkChanged:
		return "network-changed"
	default:
		return "unknown"
	}
}

// Event is one observable step of the algorithm; experiments record
// these to draw the paper's figures.
type Event struct {
	Elapsed   time.Duration // client-clock time since Run started
	Phase     Phase
	Kind      EventKind
	Offset    time.Duration // reported offset (Accepted/Rejected/FalseTicker)
	Predicted time.Duration // trend-line prediction, if available
	PredOK    bool
	Hints     hints.Hints // channel reading at the attempt
	Requests  int         // cumulative requests emitted
	Drift     float64     // current drift estimate (s/s), if any
	// Source names the upstream that produced the event, when one
	// source is attributable (per-source query outcomes; empty for
	// combined and channel-level events).
	Source string
}

// Sleeper abstracts waiting (netsim.Proc in simulation,
// sntp.WallSleeper in deployments).
type Sleeper interface {
	Sleep(d time.Duration)
}

// Client runs MNTP (Algorithm 1) over a transport, clock, hint
// provider and adjuster.
type Client struct {
	Clock     clock.Clock
	Adjuster  sysclock.Adjuster // Noop for measurement-only runs
	Transport exchange.Transport
	Hints     hints.Provider
	Sleeper   Sleeper
	Params    Params
	// OnEvent observes every step (may be nil).
	OnEvent func(Event)
	// Tuner, when non-nil, adjusts Params between reset cycles
	// (self-tuning, the paper's §7 future work).
	Tuner Tuner
	// Mono, when non-nil, reads a monotonic clock that pauses during
	// system suspend (CLOCK_MONOTONIC). Each sample then feeds
	// wall-vs-monotonic suspend detection: a resume invalidates the
	// in-flight sample and forces a re-warm-up instead of a spurious
	// giant step. Nil disables detection (simulated runs whose clocks
	// have no suspend semantics).
	Mono func() time.Duration

	filter *Filter
	// pool owns the upstream sources: health state, concurrent
	// fan-out, Marzullo selection and ranked failover. It persists
	// across reset cycles — source health is a property of the
	// upstreams, not of the filter state Algorithm 1 resets.
	pool *sources.Pool
	// minDelay is the smallest delay seen this cycle; haveMinDelay
	// distinguishes "no sample yet" from a genuine zero-delay anchor
	// (exchange.Measure floors pathological delays to exactly 0, so 0
	// cannot double as the sentinel).
	minDelay     time.Duration
	haveMinDelay bool
	start        time.Time
	requests     int
	freqCorr     float64
	cycle        CycleStats
	cycleSq      float64 // sum of squared corrected residuals (ms²)
	cycleN       int

	// disc is the clock discipline every correction flows through:
	// step/slew/panic decisions, the frequency clamp, holdover and
	// suspend detection all live there.
	disc *discipline.Discipline
	// dryRounds counts consecutive rounds that produced no sample
	// (blackout or persistent selection failure); at HoldoverAfter
	// the discipline enters holdover.
	dryRounds int
	// restart asks the current cycle to end so Run re-enters warm-up
	// (set after a detected resume or a panic streak).
	restart bool
	// backoff, when positive, overrides the next sleep with a
	// jittered exponential re-probe delay (activated by
	// NetworkChanged; deactivated by any obtained sample or once it
	// reaches the normal cadence). rng drives the jitter, seeded
	// deterministically so simulations stay reproducible.
	backoff time.Duration
	rng     *rand.Rand
	// netGen is bumped by NetworkChanged (any goroutine); seenGen is
	// the run loop's last observed value.
	netGen  atomic.Uint32
	seenGen uint32
	// warmupRound's usable replies and their pool slots, refilled each round.
	samples []exchange.Sample
	idxs    []int
}

// New creates an MNTP client with defaults applied.
func New(clk clock.Clock, adj sysclock.Adjuster, tr exchange.Transport,
	hp hints.Provider, sl Sleeper, params Params) *Client {
	params.applyDefaults()
	if adj == nil {
		adj = sysclock.Noop{}
		// Without a real adjuster nothing actually moves the clock;
		// treating a no-op step as applied would silently corrupt the
		// filter history.
		params.DisableClockUpdates = true
		params.DisableDriftCorrection = true
	}
	jseed := params.JitterSeed
	if jseed == 0 {
		jseed = 0x6d6e7470 // fixed default: determinism matters more than entropy
	}
	c := &Client{
		Clock: clk, Adjuster: adj, Transport: tr, Hints: hp, Sleeper: sl,
		Params: params,
		rng:    rand.New(rand.NewSource(jseed)), // backoff + poll jitter only
	}
	c.disc = discipline.New(adj, discipline.Config{
		StepThreshold:  params.StepThreshold,
		PanicThreshold: params.PanicThreshold,
		HoldoverMax:    params.HoldoverMax,
	})
	// The pool's slots are the warm-up references plus the regular
	// reference when it is a distinct name. Duplicate warm-up entries
	// (the paper queries one pool name several times) stay distinct
	// slots, each reaching a different pool member per exchange.
	servers := append([]string(nil), params.WarmupServers...)
	if params.RegularServer != "" {
		found := false
		for _, s := range servers {
			if s == params.RegularServer {
				found = true
				break
			}
		}
		if !found {
			servers = append(servers, params.RegularServer)
		}
	}
	c.pool = sources.New(clk, tr, sources.Config{
		Servers:         servers,
		Parallelism:     params.Parallelism,
		ExchangeTimeout: params.ExchangeTimeout,
		KoDBaseHold:     params.KoDHoldDown,
		FailoverTries:   params.FailoverTries,
	})
	return c
}

// Requests returns the number of SNTP requests emitted so far.
func (c *Client) Requests() int { return c.requests }

// Pool exposes the client's source pool (for status dumps and tests).
func (c *Client) Pool() *sources.Pool { return c.pool }

// Discipline exposes the clock discipline (for status dumps and
// tests).
func (c *Client) Discipline() *discipline.Discipline { return c.disc }

// NetworkChanged tells the client the underlying network attachment
// changed (new access point, interface handover, cellular roam). Safe
// from any goroutine. The run loop reacts at its next round: it
// resets the pool's path-dependent health state (reach, smoothed
// delay/jitter — all measured on the old path) and re-probes
// immediately with a jittered exponential backoff instead of waiting
// out the regular cadence.
func (c *Client) NetworkChanged() { c.netGen.Add(1) }

// PoolStatus returns a health snapshot of every upstream source.
func (c *Client) PoolStatus() []sources.SourceStatus { return c.pool.Status() }

// DriftEstimate returns the current drift estimate.
func (c *Client) DriftEstimate() (float64, bool) {
	if c.filter == nil {
		return 0, false
	}
	return c.filter.Drift()
}

// Run executes Algorithm 1 for the given total duration (measured on
// the client clock), cycling warm-up → regular → reset as the reset
// period elapses.
func (c *Client) Run(total time.Duration) {
	c.start = c.Clock.Now()
	for c.elapsed() < total {
		c.runCycle(total)
	}
}

func (c *Client) elapsed() time.Duration { return c.Clock.Now().Sub(c.start) }

// runCycle is one reset period: a warm-up phase followed by a regular
// phase (steps 1–26 of Algorithm 1).
func (c *Client) runCycle(total time.Duration) {
	cycleStart := c.elapsed()
	p := &c.Params

	// Step 1–3: fresh state.
	c.filter = NewFilterKind(p.Estimator, p.EstimatorWindow, ResidualFloor, MinTrendSamples)
	c.minDelay, c.haveMinDelay = 0, false
	startRequests := c.requests
	c.cycle = CycleStats{}
	c.cycleSq, c.cycleN = 0, 0

	// Warm-up phase (steps 4–14).
	for c.elapsed()-cycleStart < p.WarmupPeriod && c.elapsed() < total {
		c.preflight()
		h, ok := c.waitFavorable(PhaseWarmup, total)
		if !ok {
			return // ran out of experiment time while deferred
		}
		c.warmupRound(h)
		if c.restart {
			c.restart = false
			return // re-enter warm-up with fresh state
		}
		c.Sleeper.Sleep(c.nextWait(p.WarmupWaitTime))
	}

	// Step 16: correct the system clock drift from the estimate. A
	// positive trend slope means the measured offset grows — the
	// local clock runs slow relative to the references — so the
	// frequency correction is +slope. The estimate is applied only
	// when it is statistically meaningful (slope standard error below
	// the tolerance) and physically plausible (cumulative correction
	// within oscillator bounds); a warm-up that accepted too few
	// samples can otherwise fit a wildly wrong slope and send the
	// clock careening.
	if est, se, ok := c.filter.DriftWithError(); ok &&
		!p.DisableDriftCorrection && !p.DisableClockUpdates &&
		se <= maxDriftStdErr && plausibleFreq(c.freqCorr+est) {
		applied, err := c.disc.SetFreq(c.freqCorr + est)
		if err != nil {
			// A refused kernel adjust used to vanish here; make it
			// visible and leave freqCorr at the value actually in
			// effect.
			c.emit(Event{
				Elapsed: c.elapsed(), Phase: PhaseRegular,
				Kind: EventAdjustError, Drift: est, Requests: c.requests,
			})
		} else {
			c.freqCorr = applied
			c.filter.ApplyFreq(est, c.elapsed())
			c.emit(Event{
				Elapsed: c.elapsed(), Phase: PhaseRegular,
				Kind: EventDriftCorrected, Drift: est, Requests: c.requests,
			})
		}
	}

	// Regular phase (steps 17–26).
	for c.elapsed()-cycleStart < p.ResetPeriod && c.elapsed() < total {
		c.preflight()
		h, ok := c.waitFavorable(PhaseRegular, total)
		if !ok {
			return
		}
		c.regularRound(h)
		if c.restart {
			c.restart = false
			return // re-enter warm-up with fresh state
		}
		c.Sleeper.Sleep(c.nextWait(p.RegularWaitTime))
	}
	// Step 23–24: reset period elapsed → restart at step 1.
	if c.Tuner != nil {
		st := c.cycle
		st.Requests = c.requests - startRequests
		st.CycleLength = c.elapsed() - cycleStart
		if c.cycleN > 0 {
			st.ResidRMSE = sqrtMs(c.cycleSq / float64(c.cycleN))
		}
		st.GateFallbacks = c.filter.VarianceFallbacks()
		c.Params = c.Tuner.Adjust(st, c.Params)
		c.Params.applyDefaults()
	}
}

// maxDriftStdErr is the largest slope standard error (s/s) accepted
// for a drift correction: 25 ppm of uncertainty on commodity crystals
// whose total error is tens of ppm.
const maxDriftStdErr = 25e-6

// plausibleFreq gates a drift estimate before it is even offered to
// the discipline: a cumulative correction beyond the shared ±500 ppm
// clamp means the trend fit is wrong, not the oscillator.
func plausibleFreq(f float64) bool {
	return f >= -discipline.MaxFreq && f <= discipline.MaxFreq
}

// preflight reacts to NetworkChanged notifications at a round
// boundary: the pool forgets the old path's health and the client
// switches its next sleeps to a jittered exponential backoff so the
// new path is probed immediately rather than after a full cadence
// interval.
func (c *Client) preflight() {
	gen := c.netGen.Load()
	if gen == c.seenGen {
		return
	}
	c.seenGen = gen
	c.pool.ResetHealth()
	c.backoff = reprobeBase
	c.emit(Event{
		Elapsed: c.elapsed(), Kind: EventNetworkChanged, Requests: c.requests,
	})
}

// reprobeBase is the first re-probe delay after a network change; it
// doubles per empty-handed round until it reaches the phase's normal
// cadence.
const reprobeBase = time.Second

// nextWait returns the sleep before the next round: the jittered
// phase cadence, or — while a post-network-change backoff is active —
// a jittered exponential delay in [b/2, b] that doubles each round and
// retires once it catches up with the cadence.
func (c *Client) nextWait(normal time.Duration) time.Duration {
	if c.backoff <= 0 || c.backoff >= normal {
		c.backoff = 0
		return c.jittered(normal)
	}
	b := c.backoff
	c.backoff *= 2
	half := b / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

// jittered randomizes a cadence to uniform [normal·(1−j), normal·(1+j)]
// so a fleet sharing a cold-start instant cannot stay phase-locked.
func (c *Client) jittered(normal time.Duration) time.Duration {
	j := c.Params.PollJitter
	if c.Params.DisablePollJitter || j <= 0 || normal <= 0 {
		return normal
	}
	span := time.Duration(float64(normal) * j)
	if span <= 0 {
		return normal
	}
	return normal - span + time.Duration(c.rng.Int63n(int64(2*span)+1))
}

// roundDry records a round that obtained no usable sample. After
// HoldoverAfter consecutive dry rounds a synchronized discipline
// enters holdover: the clock free-runs on the last good frequency
// while an uncertainty bound ages (EventHoldover marks the entry).
func (c *Client) roundDry(phase Phase, h hints.Hints) {
	c.dryRounds++
	if c.dryRounds >= c.Params.HoldoverAfter && c.disc.EnterHoldover(c.Clock.Now()) {
		drift, _ := c.filter.Drift()
		c.emit(Event{
			Elapsed: c.elapsed(), Phase: phase, Kind: EventHoldover,
			Hints: h, Requests: c.requests, Drift: drift,
		})
	}
}

// roundWet records that a round produced a sample: the blackout
// counter and any re-probe backoff reset. Holdover, if entered, exits
// through the discipline when the sample is applied.
func (c *Client) roundWet() {
	c.dryRounds = 0
	c.backoff = 0
}

func sqrtMs(v float64) float64 {
	if v <= 0 {
		return 0
	}
	// v is in ms²; return ms.
	return math.Sqrt(v)
}

// waitFavorable blocks until the channel satisfies the thresholds
// (step 5/17), emitting a Deferred event per unfavorable reading. It
// returns false if the total experiment time expired while waiting.
func (c *Client) waitFavorable(phase Phase, total time.Duration) (hints.Hints, bool) {
	for {
		h := c.Hints.Hints()
		if c.Params.DisableGating || hints.Default().Favorable(h) {
			return h, true
		}
		c.emit(Event{
			Elapsed: c.elapsed(), Phase: phase, Kind: EventDeferred,
			Hints: h, Requests: c.requests,
		})
		if c.elapsed() >= total {
			return h, false
		}
		c.Sleeper.Sleep(c.Params.HintPollInterval)
	}
}

// favorableNow re-reads the hints and reports whether the channel
// still satisfies the thresholds. The gate is checked before every
// individual request and re-checked after each response: a sample
// whose exchange straddled a channel degradation is discarded, since
// its delay (and hence offset) may already reflect the degraded
// channel the thresholds exist to avoid.
func (c *Client) favorableNow() (hints.Hints, bool) {
	h := c.Hints.Hints()
	return h, c.Params.DisableGating || hints.Default().Favorable(h)
}

// warmupRound fans out through the source pool with bounded
// parallelism, screens falsetickers with Marzullo intersection plus
// cluster pruning, and offers the combined offset to the filter
// (steps 6–9). No clock update happens during warm-up. Requests are
// billed per exchange actually sent: sources inside their KoD
// hold-down are skipped without consuming a request.
func (c *Client) warmupRound(h hints.Hints) {
	res := c.pool.Round()
	c.requests += res.Exchanges

	samples, idxs := c.samples[:0], c.idxs[:0]
	for _, o := range res.Outcomes {
		switch {
		case o.Skipped:
			// In KoD hold-down: no request sent, nothing to report.
		case o.KoD:
			c.emit(Event{
				Elapsed: c.elapsed(), Phase: PhaseWarmup, Kind: EventKoD,
				Hints: h, Requests: c.requests, Source: o.Source,
			})
		case o.Err != nil:
			c.emit(Event{
				Elapsed: c.elapsed(), Phase: PhaseWarmup, Kind: EventQueryFailed,
				Hints: h, Requests: c.requests, Source: o.Source,
			})
		case !c.delayAcceptable(o.Sample.Delay):
			c.emit(Event{
				Elapsed: c.elapsed(), Phase: PhaseWarmup, Kind: EventRejected,
				Offset: o.Sample.Offset, Hints: h, Requests: c.requests,
				Source: o.Source,
			})
		default:
			samples = append(samples, o.Sample)
			idxs = append(idxs, o.Index)
		}
	}
	c.samples, c.idxs = samples, idxs
	if len(samples) == 0 {
		// Nothing usable came back: a blackout round.
		c.roundDry(PhaseWarmup, h)
		return
	}
	if hh, ok := c.favorableNow(); !ok {
		// The channel degraded while the round's exchanges were in
		// flight: every sample is suspect; drop them. The requests
		// were already spent, hence Dropped rather than Deferred.
		// Neither dry nor wet for holdover accounting — the sources
		// answered, the channel vetoed.
		c.emit(Event{
			Elapsed: c.elapsed(), Phase: PhaseWarmup, Kind: EventDropped,
			Hints: hh, Requests: c.requests,
		})
		return
	}

	var offset time.Duration
	if c.Params.DisableFalseTickerRejection {
		offset = CombineOffsets(samples)
	} else {
		sel := c.pool.SelectCombine(samples, idxs)
		for _, fi := range sel.Falsetickers {
			c.emit(Event{
				Elapsed: c.elapsed(), Phase: PhaseWarmup, Kind: EventFalseTicker,
				Offset: samples[fi].Offset, Hints: h, Requests: c.requests,
				Source: samples[fi].Server,
			})
		}
		if !sel.OK {
			// No majority and no dominant-score source: the round is
			// ambiguous; offering an average would poison the filter.
			// Persistently ambiguous rounds count toward holdover.
			c.roundDry(PhaseWarmup, h)
			return
		}
		offset = sel.Offset
	}
	c.roundWet()
	c.offer(PhaseWarmup, offset, h, false)
}

// regularRound queries the pool's top-ranked healthy source and, on
// acceptance, corrects the system clock (steps 18–21). When the
// source degrades — loss, KoD, rising delay — its score drops and
// the next round fails over to the new top-ranked source (plus
// optional in-round failover via Params.FailoverTries).
func (c *Client) regularRound(h hints.Hints) {
	s, outs, err := c.pool.MeasureBest()
	c.requests += len(outs)
	for _, o := range outs {
		if o.OK {
			continue
		}
		kind := EventQueryFailed
		if o.KoD {
			kind = EventKoD
		}
		c.emit(Event{
			Elapsed: c.elapsed(), Phase: PhaseRegular, Kind: kind,
			Hints: h, Requests: c.requests, Source: o.Source,
		})
	}
	if err != nil {
		if len(outs) == 0 {
			// Every source is held down: nothing was sent, which is a
			// deferral in the message-accounting sense.
			c.emit(Event{
				Elapsed: c.elapsed(), Phase: PhaseRegular, Kind: EventDeferred,
				Hints: h, Requests: c.requests,
			})
		}
		// Both total failure and total hold-down are blackout rounds.
		c.roundDry(PhaseRegular, h)
		return
	}
	c.roundWet()
	if !c.delayAcceptable(s.Delay) {
		c.emit(Event{
			Elapsed: c.elapsed(), Phase: PhaseRegular, Kind: EventRejected,
			Offset: s.Offset, Hints: h, Requests: c.requests, Source: s.Server,
		})
		return
	}
	if hh, ok := c.favorableNow(); !ok {
		c.emit(Event{
			Elapsed: c.elapsed(), Phase: PhaseRegular, Kind: EventDropped,
			Hints: hh, Requests: c.requests, Source: s.Server,
		})
		return
	}
	c.offer(PhaseRegular, s.Offset, h, true)
}

// panicRestartAfter is how many consecutive panic-refused corrections
// force a re-warm-up: persistent huge offsets mean either the clock
// or the sources really are that wrong, and only a fresh multi-source
// warm-up can tell which.
const panicRestartAfter = 3

// offer pushes an offset through the filter, emits the event, and in
// the regular phase applies accepted offsets to the clock through the
// discipline gate (slew/step/panic, holdover exit).
func (c *Client) offer(phase Phase, offset time.Duration, h hints.Hints, update bool) {
	elapsed := c.elapsed()
	// Suspend/resume check first: if the device slept while this
	// sample was in flight, the sample's timestamps straddle the gap
	// and its offset is garbage. Discard it, desynchronize, and
	// restart with a fresh warm-up.
	if c.Mono != nil {
		if jump, resumed := c.disc.ObserveTimes(c.Clock.Now(), c.Mono()); resumed {
			c.emit(Event{
				Elapsed: elapsed, Phase: phase, Kind: EventResumed,
				Offset: jump, Hints: h, Requests: c.requests,
			})
			c.restart = true
			return
		}
	}
	var accepted bool
	var pred time.Duration
	var predOK bool
	if c.Params.DisableFilter {
		accepted = true
		// Still feed the trend so drift estimation works.
		c.filter.est.Add(elapsed.Seconds(), offset.Seconds())
	} else {
		accepted, pred, predOK = c.filter.Offer(elapsed, offset)
	}

	kind := EventAccepted
	if !accepted {
		kind = EventRejected
	}
	if accepted && predOK {
		d := (offset - pred).Seconds() * 1000
		c.cycleSq += d * d
		c.cycleN++
	}
	drift, _ := c.filter.Drift()
	c.emit(Event{
		Elapsed: elapsed, Phase: phase, Kind: kind,
		Offset: offset, Predicted: pred, PredOK: predOK,
		Hints: h, Requests: c.requests, Drift: drift,
	})

	if accepted && update && !c.Params.DisableClockUpdates {
		res := c.disc.Apply(offset, c.Clock.Now())
		switch {
		case res.Err != nil:
			// The adjuster refused the correction (satellite of this
			// PR: this error used to vanish in an `if err == nil`).
			c.emit(Event{
				Elapsed: elapsed, Phase: phase, Kind: EventAdjustError,
				Offset: offset, Hints: h, Requests: c.requests,
			})
		case res.Action == discipline.ActionPanic:
			c.emit(Event{
				Elapsed: elapsed, Phase: phase, Kind: EventPanicStep,
				Offset: offset, Hints: h, Requests: c.requests,
			})
			if c.disc.ConsecutivePanics() >= panicRestartAfter {
				c.restart = true
			}
		default:
			if res.Applied != 0 {
				c.filter.ApplyStep(res.Applied)
			}
		}
	}
}

// delayAcceptable applies the delay sanity gate and updates the
// per-cycle minimum. The four-timestamp algebra bounds a sample's
// offset error by δ/2, so a high-delay sample is untrustworthy
// regardless of the trend — this guards the trend-less start of each
// cycle, where the filter cannot yet reject anything. The gate is
// 3·minDelay + 30 ms over the smallest delay seen this cycle, which
// tracks the path's floor on WiFi and cellular alike (the philosophy
// of NTP's delay-based sample selection, which §4.2 invokes). The
// first sample of a cycle always passes and anchors the gate.
func (c *Client) delayAcceptable(d time.Duration) bool {
	if !c.haveMinDelay || d < c.minDelay {
		c.minDelay = d
		c.haveMinDelay = true
		return true
	}
	return d <= 3*c.minDelay+30*time.Millisecond
}

func (c *Client) emit(e Event) {
	switch e.Kind {
	case EventAccepted:
		c.cycle.Accepted++
	case EventRejected:
		c.cycle.Rejected++
	case EventDeferred:
		c.cycle.Deferred++
	case EventQueryFailed, EventKoD:
		c.cycle.Failed++
	case EventDropped:
		// A dropped sample consumed a request without yielding an
		// offset; for the tuner's purposes that is a failed attempt.
		c.cycle.Failed++
	case EventAdjustError:
		c.cycle.AdjustErrors++
	case EventPanicStep:
		c.cycle.PanicSteps++
	}
	if c.OnEvent != nil {
		c.OnEvent(e)
	}
}
