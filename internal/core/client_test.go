package core

import (
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/hints"
	"mntp/internal/netsim"
	"mntp/internal/sntp"
	"mntp/internal/stats"
	"mntp/internal/sysclock"
	"mntp/internal/wireless"
)

var epoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

// lab bundles a simulated wireless testbed: scheduler, channel, pool
// of three true-time servers plus an optional false ticker, and a
// drifting client clock.
type lab struct {
	sched   *netsim.Scheduler
	channel *wireless.Channel
	net     *netsim.Network
	clk     *clock.Sim
}

func newLab(seed int64, falseTicker time.Duration, clkCfg clock.Config) *lab {
	sched := netsim.NewScheduler()
	truth := clock.NewTrue(epoch, sched.Now)
	ch := wireless.NewChannel(wireless.Params{Seed: seed}, sched.Now)
	net := netsim.NewNetwork(sched)

	var members []*netsim.Server
	for i := 0; i < 3; i++ {
		srv := netsim.NewServer("ref"+string(rune('0'+i)), truth, 2, seed*10+int64(i))
		members = append(members, srv)
		// Path: wireless hop + a wired backbone segment.
		net.AddServer(srv, &netsim.CompositePath{Segments: []netsim.PathModel{
			ch,
			netsim.NewWiredPath(time.Duration(8+4*i)*time.Millisecond, time.Millisecond, 0, 0, seed*100+int64(i)),
		}})
	}
	if falseTicker != 0 {
		bad := netsim.NewServer("badref", &clock.Fixed{Base: truth, Error: falseTicker}, 2, seed*10+9)
		members = append(members, bad)
		net.AddServer(bad, &netsim.CompositePath{Segments: []netsim.PathModel{
			ch, netsim.NewWiredPath(8*time.Millisecond, time.Millisecond, 0, 0, seed*100+9),
		}})
	}
	net.AddPool(netsim.NewPool("pool", members, seed+1000))
	clk := clock.NewSim(clkCfg, epoch, sched.Now)
	return &lab{sched: sched, channel: ch, net: net, clk: clk}
}

// stress drives the channel like the monitor node for the given
// duration: periodic load and power swings.
func (l *lab) stress(until time.Duration) {
	l.sched.Every(2*time.Minute, 4*time.Minute, func() bool {
		l.channel.AddLoad(0.55)
		l.channel.SetTxPower(4)
		l.sched.After(90*time.Second, func() {
			l.channel.AddLoad(-0.55)
			l.channel.SetTxPower(20)
		})
		return l.sched.Now() < until
	})
}

func TestMNTPRunGatesAndFilters(t *testing.T) {
	l := newLab(42, 0, clock.Config{SkewPPM: 18, Seed: 7})
	l.stress(time.Hour)

	params := DefaultParams("pool")
	params.WarmupPeriod = 10 * time.Minute
	params.WarmupWaitTime = 5 * time.Second
	params.RegularWaitTime = 5 * time.Second
	params.ResetPeriod = time.Hour
	params.DisableClockUpdates = true
	params.DisableDriftCorrection = true

	var events []Event
	l.sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: l.net, Proc: p, Clock: l.clk}
		c := New(l.clk, nil, tr, l.channel, p, params)
		c.OnEvent = func(e Event) { events = append(events, e) }
		c.Run(time.Hour)
	})
	l.sched.Run()

	var accepted, rejected, deferred int
	var acceptedErr []float64
	for _, e := range events {
		switch e.Kind {
		case EventAccepted:
			accepted++
			// Error of the reported offset against the true clock
			// error at that moment is bounded by path asymmetry; the
			// raw offset equals −trueOffset ± error, so compare the
			// corrected residual instead: accepted offsets minus
			// prediction stay small.
			if e.PredOK {
				resid := (e.Offset - e.Predicted).Seconds() * 1000
				acceptedErr = append(acceptedErr, resid)
			}
		case EventRejected:
			rejected++
		case EventDeferred:
			deferred++
		}
	}
	if accepted < 50 {
		t.Fatalf("accepted = %d, want a healthy sample count", accepted)
	}
	if deferred == 0 {
		t.Error("stressed channel never deferred a request: gating inert")
	}
	if rejected == 0 {
		t.Error("no offsets rejected: filter inert")
	}
	// Accepted-sample residuals must be small (tight trend tracking).
	if m := stats.MaxAbs(acceptedErr); m > 30 {
		t.Errorf("accepted residual max |%.1f| ms exceeds 30ms", m)
	}
}

func TestMNTPBeatsSNTPOnStressedChannel(t *testing.T) {
	// Run SNTP and MNTP side by side (separate identical labs so the
	// channel realization is shared per-protocol) and compare the
	// worst |error| of reported offsets relative to the true clock
	// offset. This is the paper's headline claim (Figures 6/8):
	// MNTP's reported offsets stay within ~25 ms while SNTP's reach
	// hundreds of ms.
	const seed = 77
	clkCfg := clock.Config{SkewPPM: 18, Seed: 9}

	// SNTP leg.
	lS := newLab(seed, 0, clkCfg)
	lS.stress(time.Hour)
	var sntpWorst float64
	lS.sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: lS.net, Proc: p, Clock: lS.clk}
		cl := sntp.New(lS.clk, tr, p, sntp.Config{Server: "pool"})
		for p.Now() < time.Hour {
			if s, err := cl.Query(); err == nil {
				trueOff := lS.clk.TrueOffset()
				errMs := (s.Offset + trueOff).Seconds() * 1000 // measurement error
				if errMs < 0 {
					errMs = -errMs
				}
				if errMs > sntpWorst {
					sntpWorst = errMs
				}
			}
			p.Sleep(5 * time.Second)
		}
	})
	lS.sched.Run()

	// MNTP leg (measurement-only, like the paper's §5.1 comparison).
	lM := newLab(seed, 0, clkCfg)
	lM.stress(time.Hour)
	params := DefaultParams("pool")
	params.WarmupPeriod = 10 * time.Minute
	params.WarmupWaitTime = 5 * time.Second
	params.RegularWaitTime = 5 * time.Second
	params.ResetPeriod = 2 * time.Hour
	params.DisableClockUpdates = true
	params.DisableDriftCorrection = true

	var mntpWorst float64
	lM.sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: lM.net, Proc: p, Clock: lM.clk}
		c := New(lM.clk, nil, tr, lM.channel, p, params)
		c.OnEvent = func(e Event) {
			if e.Kind != EventAccepted {
				return
			}
			trueOff := lM.clk.TrueOffset()
			errMs := (e.Offset + trueOff).Seconds() * 1000
			if errMs < 0 {
				errMs = -errMs
			}
			if errMs > mntpWorst {
				mntpWorst = errMs
			}
		}
		c.Run(time.Hour)
	})
	lM.sched.Run()

	if sntpWorst < 50 {
		t.Errorf("SNTP worst error = %.1fms; channel not stressful enough", sntpWorst)
	}
	if mntpWorst > 30 {
		t.Errorf("MNTP worst accepted error = %.1fms, want ≤ 30ms", mntpWorst)
	}
	if mntpWorst*3 > sntpWorst {
		t.Errorf("MNTP (%.1fms) not ≥3x better than SNTP (%.1fms)", mntpWorst, sntpWorst)
	}
}

func TestMNTPWarmupRejectsFalseTicker(t *testing.T) {
	l := newLab(5, 600*time.Millisecond, clock.Config{Seed: 3})
	params := DefaultParams("pool")
	// Query the distinct members explicitly so the false ticker is
	// hit deterministically each round.
	params.WarmupServers = []string{"ref0", "ref1", "badref"}
	params.WarmupPeriod = 5 * time.Minute
	params.WarmupWaitTime = 10 * time.Second
	params.ResetPeriod = 10 * time.Minute
	params.DisableClockUpdates = true

	var falseTickers int
	var acceptedOffsets []float64
	l.sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: l.net, Proc: p, Clock: l.clk}
		c := New(l.clk, nil, tr, l.channel, p, params)
		c.OnEvent = func(e Event) {
			switch e.Kind {
			case EventFalseTicker:
				falseTickers++
			case EventAccepted:
				acceptedOffsets = append(acceptedOffsets, e.Offset.Seconds()*1000)
			}
		}
		c.Run(5 * time.Minute)
	})
	l.sched.Run()

	if falseTickers == 0 {
		t.Fatal("600ms false ticker never rejected")
	}
	// Accepted combined offsets must not be dragged toward +600 ms;
	// with rejection they stay within tens of ms.
	if m := stats.MaxAbs(acceptedOffsets); m > 100 {
		t.Errorf("max accepted offset %.1fms: false ticker leaked into combination", m)
	}
}

func TestMNTPDriftCorrectionConvergesClock(t *testing.T) {
	// Full algorithm with clock updates on a quiet channel: after
	// warm-up + drift correction, the client clock must track true
	// time within ~25 ms (the paper's headline bound).
	l := newLab(11, 0, clock.Config{SkewPPM: 30, InitialOffset: 120 * time.Millisecond, Seed: 13})
	params := DefaultParams("pool")
	params.WarmupPeriod = 15 * time.Minute
	params.WarmupWaitTime = 10 * time.Second
	params.RegularWaitTime = time.Minute
	params.ResetPeriod = 4 * time.Hour

	var worstRegular time.Duration
	var sawDriftCorrection bool
	l.sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: l.net, Proc: p, Clock: l.clk}
		c := New(l.clk, sysclock.SimAdjuster{Clock: l.clk}, tr, l.channel, p, params)
		c.OnEvent = func(e Event) {
			if e.Kind == EventDriftCorrected {
				sawDriftCorrection = true
			}
		}
		c.Run(2 * time.Hour)
	})
	// Sample the true clock error during the regular phase.
	l.sched.Every(30*time.Minute, time.Minute, func() bool {
		off := l.clk.TrueOffset()
		if off < 0 {
			off = -off
		}
		if off > worstRegular {
			worstRegular = off
		}
		return l.sched.Now() < 2*time.Hour
	})
	l.sched.Run()

	if !sawDriftCorrection {
		t.Error("drift correction never applied")
	}
	if worstRegular > 25*time.Millisecond {
		t.Errorf("worst clock error in regular phase = %v, want ≤ 25ms", worstRegular)
	}
}

func TestMNTPWiredStaticHintsNeverDefer(t *testing.T) {
	// With an always-favorable provider (wired host), gating never
	// defers and MNTP degenerates to filtered SNTP.
	l := newLab(21, 0, clock.Config{Seed: 2})
	params := DefaultParams("pool")
	params.WarmupPeriod = 2 * time.Minute
	params.WarmupWaitTime = 5 * time.Second
	params.ResetPeriod = 10 * time.Minute
	params.DisableClockUpdates = true

	deferred := 0
	l.sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: l.net, Proc: p, Clock: l.clk}
		c := New(l.clk, nil, tr, hints.AlwaysFavorable, p, params)
		c.OnEvent = func(e Event) {
			if e.Kind == EventDeferred {
				deferred++
			}
		}
		c.Run(10 * time.Minute)
	})
	l.sched.Run()
	if deferred != 0 {
		t.Errorf("deferred = %d with always-favorable hints", deferred)
	}
}

func TestMNTPResetCycles(t *testing.T) {
	// A short reset period forces multiple warm-up cycles within the
	// run; requests keep flowing after each reset.
	l := newLab(31, 0, clock.Config{Seed: 4})
	params := DefaultParams("pool")
	params.WarmupPeriod = 2 * time.Minute
	params.WarmupWaitTime = 10 * time.Second
	params.RegularWaitTime = 30 * time.Second
	params.ResetPeriod = 5 * time.Minute
	params.DisableClockUpdates = true

	var driftCorrections, accepted int
	l.sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: l.net, Proc: p, Clock: l.clk}
		c := New(l.clk, sysclock.SimAdjuster{Clock: l.clk}, tr, hints.AlwaysFavorable, p, params)
		c.Params.DisableClockUpdates = true
		c.Params.DisableDriftCorrection = true
		c.OnEvent = func(e Event) {
			switch e.Kind {
			case EventDriftCorrected:
				driftCorrections++
			case EventAccepted:
				accepted++
			}
		}
		c.Run(21 * time.Minute)
	})
	l.sched.Run()
	// 21 min / 5 min reset ≈ 4 cycles; at least 3 full cycles' worth
	// of samples must have been accepted.
	if accepted < 30 {
		t.Errorf("accepted = %d across cycles", accepted)
	}
}

func TestDelayGateAdaptive(t *testing.T) {
	c := New(nil, nil, nil, nil, nil, DefaultParams("pool"))
	// First sample anchors the gate.
	if !c.delayAcceptable(40 * time.Millisecond) {
		t.Fatal("first sample rejected")
	}
	// Within 3*min+30ms = 150ms: accepted.
	if !c.delayAcceptable(140 * time.Millisecond) {
		t.Error("in-gate delay rejected")
	}
	// Beyond the gate: rejected.
	if c.delayAcceptable(200 * time.Millisecond) {
		t.Error("out-of-gate delay accepted")
	}
	// A new smaller minimum re-anchors.
	if !c.delayAcceptable(20 * time.Millisecond) {
		t.Error("new minimum rejected")
	}
	if c.delayAcceptable(120 * time.Millisecond) {
		t.Error("gate did not tighten after new minimum (3*20+30=90ms)")
	}
}

func TestDelayGateWorksOnCellularScaleDelays(t *testing.T) {
	// A 4G path with ~450ms RTTs must not be starved by the gate (the
	// adaptive form tracks the path's own floor).
	c := New(nil, nil, nil, nil, nil, DefaultParams("pool"))
	for _, d := range []time.Duration{420, 460, 440, 500, 480} {
		if !c.delayAcceptable(d * time.Millisecond) {
			t.Fatalf("cellular-scale delay %vms rejected", d)
		}
	}
}

func TestDelayGateSurvivesZeroDelayAnchor(t *testing.T) {
	// exchange.Measure floors pathological delays to exactly 0, so a
	// zero-delay sample is a legitimate anchor — the gate must not
	// treat it as the "no sample yet" state, or the next sample
	// (however slow) re-anchors the gate and passes.
	c := New(nil, nil, nil, nil, nil, DefaultParams("pool"))
	if !c.delayAcceptable(0) {
		t.Fatal("first (anchoring) zero-delay sample rejected")
	}
	// The gate is now 3·0 + 30 ms.
	if c.delayAcceptable(400 * time.Millisecond) {
		t.Error("400ms sample passed a 30ms gate: zero anchor treated as unset")
	}
	if !c.delayAcceptable(20 * time.Millisecond) {
		t.Error("20ms sample within the 30ms gate rejected")
	}
	if c.delayAcceptable(400 * time.Millisecond) {
		t.Error("rejected sample re-anchored the gate")
	}
}
