// Package netsim is the discrete-event network simulation substrate of
// the MNTP reproduction. It provides a virtual-time scheduler with
// deterministic ordering, cooperative blocking processes (so protocol
// client code is written in ordinary sequential style and runs
// unchanged over real transports), simulated NTP servers and pools,
// and composable one-way-delay path models.
//
// Virtual time makes the paper's multi-hour experiments run in
// milliseconds and — unlike the live testbed the paper used, which
// could not repeat experiments exactly (§3.2) — bit-identical under a
// fixed seed.
//
// Two parties advance virtual time, never at once. The scheduler does
// when it pops an event. A process does, from inside Sleep and without
// giving up control, when it is provably what the scheduler would run
// next:
//
//  1. every queued event is strictly later than the wake-up instant (an
//     event at that very instant was scheduled earlier and fires first),
//  2. the wake-up instant does not pass the bound of the enclosing Run
//     or RunUntil, and
//  3. the process was not entered through Step, which runs exactly one
//     queued event.
//
// Otherwise the process queues its wake-up and hands control back. The
// order of events, their timestamps and so every seeded output are the
// same either way; the shortcut only spares the park and resume (see
// handoff) of handing control to a scheduler that would hand it
// straight back.
package netsim

import "time"

// Scheduler is a single-threaded discrete-event scheduler. Virtual
// time starts at zero and only advances when Run consumes events.
// Events at equal times fire in scheduling order.
type Scheduler struct {
	now    time.Duration
	events eventHeap
	seq    uint64
	epoch  time.Time
	// horizon is the latest instant a sleeping process may move now to
	// by itself: the bound of the Run or RunUntil it runs under, or
	// noInline under a bare Step. Only read while an event is firing.
	horizon time.Duration
}

const (
	// noInline is below every virtual instant (time starts at zero).
	noInline  = time.Duration(-1)
	noHorizon = time.Duration(1<<63 - 1)
)

// NewScheduler creates a scheduler whose virtual time zero corresponds
// to the given wall-clock epoch.
func NewScheduler(epoch time.Time) *Scheduler {
	return &Scheduler{epoch: epoch}
}

// Now returns the current virtual time (elapsed since start).
func (s *Scheduler) Now() time.Duration { return s.now }

// Epoch returns the wall-clock anchor of virtual time zero.
func (s *Scheduler) Epoch() time.Time { return s.epoch }

// WallNow returns the wall-clock rendering of the current virtual
// time. This is the simulation's true time.
func (s *Scheduler) WallNow() time.Time { return s.epoch.Add(s.now) }

// At schedules fn to run at virtual time t. Times in the past run at
// the current time (never before).
func (s *Scheduler) At(t time.Duration, fn func()) {
	s.seq++
	s.events.push(event{at: s.clamp(t), seq: s.seq, fn: fn})
}

// clamp moves an instant in the past to now.
func (s *Scheduler) clamp(t time.Duration) time.Duration {
	if t < s.now {
		return s.now
	}
	return t
}

// After schedules fn to run d from now.
func (s *Scheduler) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// Every schedules fn to run periodically starting at start and then
// every interval, until fn returns false.
func (s *Scheduler) Every(start, interval time.Duration, fn func() bool) {
	var tick func()
	tick = func() {
		if fn() {
			s.After(interval, tick)
		}
	}
	s.At(start, tick)
}

// Step runs the next event, if any, and reports whether one ran. It
// runs exactly one queued event: a process it resumes parks at its
// next Sleep whatever the queue holds.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	prev := s.horizon
	s.horizon = noInline
	s.fire()
	s.horizon = prev
	return true
}

// Run consumes events until none remain.
func (s *Scheduler) Run() { s.runTo(noHorizon) }

// RunUntil consumes events with timestamps ≤ t, then sets the virtual
// time to t.
func (s *Scheduler) RunUntil(t time.Duration) {
	s.runTo(t)
	if s.now < t {
		s.now = t
	}
}

// runTo fires every event due at or before t, letting processes sleep
// up to t on their own.
func (s *Scheduler) runTo(t time.Duration) {
	prev := s.horizon
	s.horizon = t
	for len(s.events) > 0 && s.events[0].at <= t {
		s.fire()
	}
	s.horizon = prev
}

// fire pops the earliest event and runs it: a plain event's function,
// or a process until it parks again or exits.
func (s *Scheduler) fire() {
	ev := s.events.pop()
	s.now = ev.at
	if ev.p == nil {
		ev.fn()
		return
	}
	ev.p.resume()
}

// Pending returns the number of scheduled events.
func (s *Scheduler) Pending() int { return len(s.events) }

// event is one queue entry: fn to call at instant at, or, when p is
// set, the wake-up of a sleeping process.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	p   *Proc
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events by (at, seq), kept as
// values so that scheduling allocates nothing once the slice has grown.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	*h = q
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the references for the collector
	q = q[:n]
	*h = q
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// Proc is a cooperative blocking process: protocol code in ordinary
// sequential style on a stack of its own, suspending on Sleep while
// virtual time advances. Exactly one party (a Proc or the scheduler)
// executes at any moment, so simulations remain deterministic: while a
// process runs, the scheduler is blocked inside the event that resumed
// it, and the hand-off that passes control orders every write of one
// before every read of the other. That is what lets a process that is
// next in line anyway advance the scheduler's clock itself (see Sleep).
type Proc struct {
	s *Scheduler
	handoff
	stop bool
}

// Go starts fn as a process at the current virtual time. Run (or
// RunUntil past the start time) must be called for it to execute.
func (s *Scheduler) Go(fn func(p *Proc)) {
	p := &Proc{s: s}
	s.After(0, func() {
		p.start(func() {
			defer func() {
				// Convert a procStopped unwind into a clean exit;
				// other panics propagate. recover must be called
				// directly in the deferred function.
				if r := recover(); r != nil {
					if _, ok := r.(procStopped); !ok {
						panic(r)
					}
				}
			}()
			fn(p)
		})
	})
}

// Sleep suspends the process for d of virtual time (not at all for
// d ≤ 0, though events already due at this instant still fire first).
//
// When nothing else is due up to and including the wake-up instant and
// that instant is within the horizon of the running Run or RunUntil,
// the scheduler's next act would be to resume this very process, so
// Sleep moves the clock there and returns without giving up control.
// Otherwise it queues the wake-up and parks.
func (p *Proc) Sleep(d time.Duration) {
	if p.stop {
		// A stopped process must unwind; sleeping forever would
		// deadlock the scheduler. Panic unwinds to Go's wrapper.
		panic(procStopped{})
	}
	s := p.s
	wake := s.clamp(s.now + d)
	s.seq++ // the wake-up takes its place in scheduling order either way
	if wake <= s.horizon && (len(s.events) == 0 || s.events[0].at > wake) {
		s.now = wake
		return
	}
	s.events.push(event{at: wake, seq: s.seq, p: p})
	p.park()
	if p.stop {
		// Stopped while sleeping: unwind instead of returning into
		// the protocol loop.
		panic(procStopped{})
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.s.Now() }

// WallNow returns the wall-clock rendering of virtual now.
func (p *Proc) WallNow() time.Time { return p.s.WallNow() }

// Scheduler returns the owning scheduler.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// Stop marks the process as stopped; its next Sleep unwinds it.
// Protocol loops structured as "for { work; Sleep }" terminate cleanly.
func (p *Proc) Stop() { p.stop = true }

type procStopped struct{}
