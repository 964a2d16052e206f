package chaos

import (
	"fmt"
	"time"

	"mntp/internal/core"
)

// convergence is the acceptance bound of the ISSUE: once a fault has
// cleared, the client must bring the clock back within this error
// before the scenario ends (all scenarios finish inside one reset
// period).
const convergence = 25 * time.Millisecond

// scenarios returns the named fault scripts. Each runs the full MNTP
// client — warm-up, regular phase, trend filter, hint gating, source
// pool, guarded discipline — against one choreographed failure.
func scenarios() []scenario {
	return []scenario{
		totalBlackout(),
		kodStorm(),
		falsetickerMajority(),
		suspendJump(),
		asymSpike(),
		wirelessDegradation(),
		roam(),
	}
}

// totalBlackout kills every path for 20 minutes mid-regular-phase.
// The discipline must enter holdover (keeping the learned frequency,
// so the clock drifts far less than its raw 30 ppm), and exit on the
// first accepted sample once the network returns, re-converging
// within the same cycle.
func totalBlackout() scenario {
	return scenario{
		Name: "total-blackout",
		Seed: 101,
		Script: func(w *world) {
			w.Sched.After(20*time.Minute, func() {
				for _, g := range w.Gates {
					g.setDown(true)
				}
			})
			w.Sched.After(40*time.Minute, func() {
				for _, g := range w.Gates {
					g.setDown(false)
				}
			})
		},
		Verify: func(r *report) []string {
			var v []string
			if r.count(core.EventHoldover) == 0 {
				v = append(v, "blackout never produced EventHoldover")
			}
			if n := r.acceptedAfter(41 * time.Minute); n == 0 {
				v = append(v, "no sample accepted after the network returned")
			}
			// Holdover must free-run on the learned frequency: over the
			// 20 min outage the clock may not wander anywhere near the
			// 36 ms its raw 30 ppm skew would accumulate.
			drift := r.maxAbsOffset(20*time.Minute, 40*time.Minute)
			if drift > convergence {
				v = append(v, fmt.Sprintf("holdover drift reached %v, want ≤ %v (raw skew would give 36ms)", drift, convergence))
			}
			if r.FinalState != "sync" {
				v = append(v, fmt.Sprintf("final discipline state %q, want sync", r.FinalState))
			}
			return append(v, verifyConverged(r)...)
		},
	}
}

// kodStorm makes the transport answer 90% of exchanges with RATE
// kiss-of-death packets for 12 minutes. Every source lands in
// exponential hold-down; the client must ride it out without panicking
// and resume once the hold-downs (10 min base) expire after the storm.
func kodStorm() scenario {
	return scenario{
		Name: "kod-storm",
		Seed: 202,
		Script: func(w *world) {
			w.Sched.After(20*time.Minute, func() { w.Fault.KoDProb = 0.9 })
			w.Sched.After(32*time.Minute, func() { w.Fault.KoDProb = 0 })
		},
		Verify: func(r *report) []string {
			var v []string
			if r.count(core.EventKoD) == 0 {
				v = append(v, "storm never surfaced an EventKoD")
			}
			if n := r.acceptedAfter(45 * time.Minute); n == 0 {
				v = append(v, "no sample accepted after hold-downs expired")
			}
			return append(v, verifyConverged(r)...)
		},
	}
}

// falsetickerMajority turns three of the four servers into agreeing
// liars (+30 s) after the client has synchronized, with the trend
// filter disabled so the lie reaches the discipline undiluted. The
// panic gate is the last line of defense: it must refuse every liar
// offset, and the clock must never follow them.
func falsetickerMajority() scenario {
	return scenario{
		Name: "falseticker-majority",
		Seed: 303,
		Tune: func(p *core.Params) { p.DisableFilter = true },
		Script: func(w *world) {
			w.Sched.After(25*time.Minute, func() {
				for _, l := range w.Liars[:3] {
					l.setError(30 * time.Second)
				}
			})
		},
		Verify: func(r *report) []string {
			var v []string
			if r.count(core.EventPanicStep) == 0 {
				v = append(v, "liar majority never tripped the panic gate")
			}
			// The clock must never be yanked toward the +30 s lie; with
			// the learned frequency still applied it stays near true
			// time even while most rounds are refused.
			if worst := r.maxAbsOffset(25*time.Minute, r.Scenario.Duration); worst > time.Second {
				v = append(v, fmt.Sprintf("clock followed the liars: worst offset %v", worst))
			}
			return v
		},
	}
}

// suspendJump steps the wall clock +90 s while virtual monotonic time
// keeps flowing — a suspend/resume. The client must detect the
// divergence, discard in-flight samples, re-enter warm-up, and then
// legitimately step the clock back (the discipline is cold after the
// resume, so the big recovery step is allowed — and only then).
func suspendJump() scenario {
	return scenario{
		Name: "suspend-jump",
		Seed: 404,
		Script: func(w *world) {
			w.Sched.After(25*time.Minute, func() { w.Clk.Step(90 * time.Second) })
		},
		AllowLargeSteps: []window{{From: 25 * time.Minute, To: 45 * time.Minute}},
		Verify: func(r *report) []string {
			var v []string
			if r.count(core.EventResumed) == 0 {
				v = append(v, "90s wall-vs-mono divergence never detected")
			}
			resumedAt, _ := r.firstAt(core.EventResumed)
			warmupAfter := false
			for _, e := range r.Events {
				if e.Kind == core.EventAccepted && e.Phase == core.PhaseWarmup && e.Elapsed > resumedAt {
					warmupAfter = true
					break
				}
			}
			if !warmupAfter {
				v = append(v, "no fresh warm-up after the detected resume")
			}
			for _, e := range r.Events {
				if e.Kind == core.EventPanicStep && e.Elapsed > resumedAt {
					v = append(v, "recovery step after resume was panic-refused (desync not applied)")
					break
				}
			}
			return append(v, verifyConverged(r)...)
		},
	}
}

// asymSpike adds 400 ms of uplink-only delay for 10 minutes — the
// classic asymmetric path that biases measured offsets by −200 ms.
// The delay gate and trend filter must keep the biased samples off the
// clock: the true offset stays converged straight through the spike.
func asymSpike() scenario {
	return scenario{
		Name: "asym-spike",
		Seed: 505,
		Script: func(w *world) {
			w.Sched.After(25*time.Minute, func() {
				for _, g := range w.Gates {
					g.setExtra(400*time.Millisecond, 0)
				}
			})
			w.Sched.After(35*time.Minute, func() {
				for _, g := range w.Gates {
					g.setExtra(0, 0)
				}
			})
		},
		Verify: func(r *report) []string {
			var v []string
			// Converged before the spike, and never knocked off by it:
			// a 200 ms bias accepted even once would show up here.
			if worst := r.maxAbsOffset(20*time.Minute, r.Scenario.Duration); worst > 30*time.Millisecond {
				v = append(v, fmt.Sprintf("asymmetry moved the clock: worst offset %v", worst))
			}
			rejectedDuring := 0
			for _, e := range r.Events {
				if e.Kind == core.EventRejected && e.Elapsed >= 25*time.Minute && e.Elapsed < 36*time.Minute {
					rejectedDuring++
				}
			}
			if rejectedDuring == 0 {
				v = append(v, "no biased sample was rejected during the spike (gates inert?)")
			}
			return append(v, verifyConverged(r)...)
		},
	}
}

// wirelessDegradation saturates the channel (heavy cross traffic,
// transmit power cut to 2 dBm) for 15 minutes. MNTP's hint gating
// should defer requests rather than consume garbage; the clock rides
// through on its corrected frequency and re-converges afterwards.
func wirelessDegradation() scenario {
	return scenario{
		Name: "wireless-degradation",
		Seed: 606,
		Script: func(w *world) {
			w.Sched.After(20*time.Minute, func() {
				w.Channel.AddLoad(0.85)
				w.Channel.SetTxPower(2)
			})
			w.Sched.After(35*time.Minute, func() {
				w.Channel.AddLoad(-0.85)
				w.Channel.SetTxPower(20)
			})
		},
		Verify: func(r *report) []string {
			var v []string
			deferred := 0
			for _, e := range r.Events {
				if e.Kind == core.EventDeferred && e.Elapsed >= 20*time.Minute && e.Elapsed < 36*time.Minute {
					deferred++
				}
			}
			if deferred == 0 {
				v = append(v, "degraded channel never deferred a request: gating inert")
			}
			if n := r.acceptedAfter(36 * time.Minute); n == 0 {
				v = append(v, "no sample accepted after the channel recovered")
			}
			return append(v, verifyConverged(r)...)
		},
	}
}

// roam models switching networks: a 20 s outage, then a new path with
// different delays, announced through the NetworkChanged hook. The
// pool's path health resets, the client re-probes on a jittered
// backoff, and samples keep flowing on the new path.
func roam() scenario {
	return scenario{
		Name: "roam",
		Seed: 707,
		Script: func(w *world) {
			w.Sched.After(25*time.Minute, func() {
				for _, g := range w.Gates {
					g.setDown(true)
				}
			})
			w.Sched.After(25*time.Minute+20*time.Second, func() {
				for i, g := range w.Gates {
					g.setDown(false)
					// The new network reaches the same pool through
					// different (symmetric) backbone delays.
					g.setExtra(time.Duration(15+5*i)*time.Millisecond, time.Duration(15+5*i)*time.Millisecond)
				}
				w.Client.NetworkChanged()
			})
		},
		Verify: func(r *report) []string {
			var v []string
			if r.count(core.EventNetworkChanged) == 0 {
				v = append(v, "NetworkChanged never surfaced as an event")
			}
			if n := r.acceptedAfter(27 * time.Minute); n == 0 {
				v = append(v, "no sample accepted on the new network")
			}
			return append(v, verifyConverged(r)...)
		},
	}
}

// verifyConverged is the shared tail check: the run ends with the
// clock inside the convergence bound.
func verifyConverged(r *report) []string {
	off := r.Final
	if off < 0 {
		off = -off
	}
	if off > convergence {
		return []string{fmt.Sprintf("final clock error %v, want ≤ %v", r.Final, convergence)}
	}
	return nil
}
