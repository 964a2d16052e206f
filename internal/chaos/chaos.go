// Package chaos is a scenario harness for the guarded clock
// discipline: it scripts faults — total blackouts, kiss-of-death
// storms, falseticker majorities, suspend jumps, asymmetric-delay
// spikes, wireless degradation and network roams — against the full
// MNTP client over the discrete-event testbed, and reports what the
// discipline did about them.
//
// The harness composes pieces that already exist elsewhere in the
// repository rather than re-modelling them: netsim supplies virtual
// time and per-server paths, wireless.Channel the 802.11 access hop,
// ntpnet.FaultTransport the transport-level fault injection (KoD
// storms, duplication, corruption), and internal/core the client under
// test. What chaos adds is the choreography — when each fault starts
// and stops — plus the instrumentation to assert the ISSUE's
// invariants: after warm-up the clock is never stepped beyond the
// panic threshold (except where a scenario explicitly allows it, e.g.
// the legitimate recovery step after a detected suspend), and the
// client re-converges within a bounded error once the fault clears.
package chaos

import (
	"fmt"
	"sync"
	"time"

	"mntp/internal/clock"
	"mntp/internal/core"
	"mntp/internal/hints"
	"mntp/internal/netsim"
	"mntp/internal/ntpnet"
	"mntp/internal/sysclock"
	"mntp/internal/trend"
	"mntp/internal/wireless"
)

// epoch matches the rest of the testbed: the paper's trace collection
// started 2016-11-14.
var epoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

// Gate wraps a path segment with scriptable impairments: a hard
// down switch (packets vanish), extra per-direction delay (asymmetry
// spikes, path changes after a roam). Scenarios
// flip these from scheduler callbacks mid-run; the mutex makes that
// safe regardless of which goroutine the scheduler dispatches on.
type Gate struct {
	mu    sync.Mutex
	inner netsim.PathModel

	down      bool
	extraUp   time.Duration
	extraDown time.Duration
}

// newGate wraps inner with an initially transparent gate.
func newGate(inner netsim.PathModel) *Gate {
	return &Gate{inner: inner}
}

// setDown switches the hard outage on or off.
func (g *Gate) setDown(down bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.down = down
}

// setExtra sets additional one-way delay per direction. Unequal
// values create exactly the path asymmetry that corrupts NTP offsets
// (error = (up − down)/2).
func (g *Gate) setExtra(up, down time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.extraUp, g.extraDown = up, down
}

// SampleOneWay implements netsim.PathModel.
func (g *Gate) SampleOneWay(now time.Duration, dir netsim.Direction) (time.Duration, bool) {
	g.mu.Lock()
	down := g.down
	extra := g.extraUp
	if dir == netsim.Downlink {
		extra = g.extraDown
	}
	g.mu.Unlock()
	if down {
		return 0, true
	}
	d, lostInner := g.inner.SampleOneWay(now, dir)
	if lostInner {
		return 0, true
	}
	return d + extra, false
}

// LiarClock is a server clock whose error is scriptable at runtime —
// a falseticker that can start truthful and begin lying mid-scenario,
// after the client has synchronized and armed its panic gate.
type LiarClock struct {
	mu   sync.Mutex
	base clock.Clock
	err  time.Duration
}

// Now returns the base time shifted by the current error.
func (l *LiarClock) Now() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.Now().Add(l.err)
}

// setError sets the lie.
func (l *LiarClock) setError(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.err = d
}

// stepRec records one clock step the discipline applied.
type stepRec struct {
	At     time.Duration // virtual time of the step
	Amount time.Duration
}

// StepRecorder wraps an adjuster and records every applied step, so
// reports can prove "no step beyond the panic threshold after
// warm-up" from what actually hit the clock, not from events alone.
type StepRecorder struct {
	Inner sysclock.Adjuster
	Now   func() time.Duration

	mu    sync.Mutex
	steps []stepRec
}

// Step implements sysclock.Adjuster.
func (r *StepRecorder) Step(d time.Duration) error {
	if err := r.Inner.Step(d); err != nil {
		return err
	}
	r.mu.Lock()
	r.steps = append(r.steps, stepRec{At: r.Now(), Amount: d})
	r.mu.Unlock()
	return nil
}

// AdjustFreq implements sysclock.Adjuster.
func (r *StepRecorder) AdjustFreq(f float64) error { return r.Inner.AdjustFreq(f) }

// recorded returns a copy of the recorded steps.
func (r *StepRecorder) recorded() []stepRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]stepRec, len(r.steps))
	copy(out, r.steps)
	return out
}

// world is the assembled testbed a scenario script manipulates. The
// fields populated at construction (Sched, Channel, Net, Clk, Gates,
// Liars) are valid immediately; Client, Fault and Steps come to life
// when the client process starts at virtual t=0, so scripts must only
// dereference them inside scheduled callbacks (which fire later).
type world struct {
	Sched   *netsim.Scheduler
	Channel *wireless.Channel
	Net     *netsim.Network
	Clk     *clock.Sim
	Gates   []*Gate      // per-server wired-backbone gates
	Liars   []*LiarClock // per-server scriptable clocks (error 0 = truthful)
	Fault   *ntpnet.FaultTransport
	Steps   *StepRecorder
	Client  *core.Client
}

// numServers is the pool size: four references, like a typical
// 0..3.pool.ntp.org configuration.
const numServers = 4

// newWorld assembles the testbed: four servers with scriptable clocks,
// each reached through the shared wireless hop plus a gated wired
// backbone, pooled under the name "pool"; and a drifting client clock.
func newWorld(seed int64, clkCfg clock.Config) *world {
	sched := netsim.NewScheduler()
	truth := clock.NewTrue(epoch, sched.Now)
	ch := wireless.NewChannel(wireless.Params{Seed: seed}, sched.Now)
	net := netsim.NewNetwork(sched)

	w := &world{Sched: sched, Channel: ch, Net: net}
	var members []*netsim.Server
	for i := 0; i < numServers; i++ {
		liar := &LiarClock{base: truth}
		w.Liars = append(w.Liars, liar)
		srv := netsim.NewServer(fmt.Sprintf("ref%d", i), liar, 2, seed*10+int64(i))
		members = append(members, srv)
		gate := newGate(
			netsim.NewWiredPath(time.Duration(8+4*i)*time.Millisecond, time.Millisecond, 0, 0, seed*100+int64(i)))
		w.Gates = append(w.Gates, gate)
		net.AddServer(srv, &netsim.CompositePath{Segments: []netsim.PathModel{ch, gate}})
	}
	net.AddPool(netsim.NewPool("pool", members, seed+1000))
	w.Clk = clock.NewSim(clkCfg, epoch, sched.Now)
	return w
}

// baseParams is the client configuration every scenario starts from:
// a compressed MNTP schedule (8 min warm-up at 10 s cadence, 30 s
// regular rounds, 2 h reset) so faults and recoveries fit in ~1 h of
// virtual time, with the guarded-discipline knobs tight enough to
// exercise: steps beyond 100 ms, panic refusals beyond 2 s, holdover
// after 3 dry rounds for at most 45 min, and 10 min KoD hold-downs so
// a storm's aftermath clears within the scenario.
func baseParams() core.Params {
	p := core.DefaultParams("pool")
	p.WarmupPeriod = 8 * time.Minute
	p.WarmupWaitTime = 10 * time.Second
	p.RegularWaitTime = 30 * time.Second
	p.ResetPeriod = 2 * time.Hour
	p.StepThreshold = 100 * time.Millisecond
	p.PanicThreshold = 2 * time.Second
	p.HoldoverMax = 45 * time.Minute
	p.HoldoverAfter = 3
	p.KoDHoldDown = 10 * time.Minute
	p.FailoverTries = 2
	return p
}

// window is a virtual-time interval.
type window struct {
	From, To time.Duration
}

// contains reports whether t falls inside the window.
func (w window) contains(t time.Duration) bool { return t >= w.From && t < w.To }

// scenario is one scripted fault sequence plus its acceptance checks.
type scenario struct {
	// Name identifies the scenario in reports and test output.
	Name string
	// Seed drives all randomness (paths, channel, fault transport).
	Seed int64
	// Duration is total virtual run time (default 75 min).
	Duration time.Duration
	// Clock configures the client oscillator (default: 30 ppm skew,
	// 150 ms initial offset).
	Clock clock.Config
	// Estimator selects the filter's trend estimator for the run
	// (empty means the paper's least squares). The bake-off runs every
	// scenario under each trend.Kinds() entry.
	Estimator trend.Kind
	// Tune, if non-nil, adjusts the base parameters.
	Tune func(*core.Params)
	// Script schedules the faults. It runs before the simulation
	// starts; use w.Sched.After/Every to act at virtual times, and
	// only touch w.Client/w.Fault inside those callbacks.
	Script func(w *world)
	// AllowLargeSteps are windows in which a step beyond the panic
	// threshold is legitimate (e.g. the cold recovery step after a
	// detected suspend). Everywhere else after warm-up, such a step
	// fails the run.
	AllowLargeSteps []window
	// Verify returns scenario-specific violations (empty = pass). The
	// universal step invariant is checked by report.violations, not
	// here.
	Verify func(r *report) []string
}

// trajPoint is one sample of the clock's true offset.
type trajPoint struct {
	At     time.Duration
	Offset time.Duration
}

// report is the outcome of one scenario run.
type report struct {
	Scenario scenario
	Params   core.Params
	// Events is every client event in order.
	Events []core.Event
	// Counts indexes events by kind.
	Counts map[core.EventKind]int
	// Steps is every clock step the discipline applied.
	Steps []stepRec
	// Trajectory samples the true clock offset every 30 s.
	Trajectory []trajPoint
	// Final is the true offset when the run ended.
	Final time.Duration
	// FinalState is the discipline state when the run ended.
	FinalState string
}

// count returns how many events of the kind occurred.
func (r *report) count(k core.EventKind) int { return r.Counts[k] }

// firstAt returns the virtual time of the first event of the kind.
func (r *report) firstAt(k core.EventKind) (time.Duration, bool) {
	for _, e := range r.Events {
		if e.Kind == k {
			return e.Elapsed, true
		}
	}
	return 0, false
}

// acceptedAfter counts accepted samples at or after t.
func (r *report) acceptedAfter(t time.Duration) int {
	n := 0
	for _, e := range r.Events {
		if e.Kind == core.EventAccepted && e.Elapsed >= t {
			n++
		}
	}
	return n
}

// maxAbsOffset returns the largest |true offset| sampled in [from, to).
func (r *report) maxAbsOffset(from, to time.Duration) time.Duration {
	var worst time.Duration
	for _, p := range r.Trajectory {
		if p.At < from || p.At >= to {
			continue
		}
		off := p.Offset
		if off < 0 {
			off = -off
		}
		if off > worst {
			worst = off
		}
	}
	return worst
}

// violations checks the universal invariant — after the first
// warm-up, no applied step exceeds the panic threshold outside the
// scenario's allowed windows — and then appends the scenario's own
// checks.
func (r *report) violations() []string {
	var out []string
	warmupEnd := r.Params.WarmupPeriod
	limit := r.Params.PanicThreshold
	for _, s := range r.Steps {
		if s.At < warmupEnd {
			continue
		}
		amount := s.Amount
		if amount < 0 {
			amount = -amount
		}
		if amount <= limit {
			continue
		}
		allowed := false
		for _, w := range r.Scenario.AllowLargeSteps {
			if w.contains(s.At) {
				allowed = true
				break
			}
		}
		if !allowed {
			out = append(out, fmt.Sprintf(
				"step of %v at %v exceeds panic threshold %v outside any allowed window",
				s.Amount, s.At, limit))
		}
	}
	if r.Scenario.Verify != nil {
		out = append(out, r.Scenario.Verify(r)...)
	}
	return out
}

// run executes the scenario and returns its report.
func run(sc scenario) *report {
	if sc.Duration == 0 {
		sc.Duration = 75 * time.Minute
	}
	if (sc.Clock == clock.Config{}) {
		sc.Clock = clock.Config{SkewPPM: 30, InitialOffset: 150 * time.Millisecond, Seed: sc.Seed}
	}
	params := baseParams()
	params.Estimator = sc.Estimator
	if sc.Tune != nil {
		sc.Tune(&params)
	}
	w := newWorld(sc.Seed, sc.Clock)
	rep := &report{Scenario: sc, Params: params, Counts: make(map[core.EventKind]int)}

	w.Sched.Go(func(p *netsim.Proc) {
		inner := &netsim.Transport{Net: w.Net, Proc: p, Clock: w.Clk}
		w.Fault = &ntpnet.FaultTransport{Inner: inner, Clock: w.Clk, Sleeper: p, Seed: sc.Seed}
		w.Steps = &StepRecorder{Inner: sysclock.SimAdjuster{Clock: w.Clk}, Now: w.Sched.Now}
		cl := core.New(w.Clk, w.Steps, w.Fault, w.Channel, p, params)
		// Virtual scheduler time is the simulation's CLOCK_MONOTONIC:
		// it never jumps, while the sim wall clock can be stepped —
		// exactly the divergence the suspend detector watches.
		cl.Mono = w.Sched.Now
		cl.OnEvent = func(e core.Event) {
			rep.Events = append(rep.Events, e)
			rep.Counts[e.Kind]++
		}
		w.Client = cl
		cl.Run(sc.Duration)
	})
	w.Sched.Every(30*time.Second, 30*time.Second, func() bool {
		rep.Trajectory = append(rep.Trajectory, trajPoint{At: w.Sched.Now(), Offset: w.Clk.TrueOffset()})
		return w.Sched.Now() < sc.Duration
	})
	if sc.Script != nil {
		sc.Script(w)
	}
	w.Sched.Run()

	rep.Steps = w.Steps.recorded()
	rep.Final = w.Clk.TrueOffset()
	rep.FinalState = w.Client.Discipline().State().String()
	return rep
}

var (
	_ netsim.PathModel  = (*Gate)(nil)
	_ clock.Clock       = (*LiarClock)(nil)
	_ sysclock.Adjuster = (*StepRecorder)(nil)
	_ hints.Provider    = (*wireless.Channel)(nil)
)
