package ntpclient

import (
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/netsim"
	"mntp/internal/ntppkt"
)

var epoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

// buildPoolNet wires a scheduler, n good servers (true clocks) and
// optionally one false ticker, over wired paths.
func buildPoolNet(sched *netsim.Scheduler, goodServers int, falseTickerErr time.Duration) (*netsim.Network, []string) {
	truth := clock.NewTrue(epoch, sched.Now)
	net := netsim.NewNetwork(sched)
	var names []string
	for i := 0; i < goodServers; i++ {
		name := "good" + string(rune('0'+i))
		srv := netsim.NewServer(name, truth, 2, int64(10+i))
		net.AddServer(srv, netsim.NewWiredPath(
			time.Duration(10+3*i)*time.Millisecond, 2*time.Millisecond, 0, 0.001, int64(20+i)))
		names = append(names, name)
	}
	if falseTickerErr != 0 {
		bad := netsim.NewServer("falseticker", &clock.Fixed{Base: truth, Error: falseTickerErr}, 2, 30)
		net.AddServer(bad, netsim.NewWiredPath(8*time.Millisecond, time.Millisecond, 0, 0, 31))
		names = append(names, "falseticker")
	}
	return net, names
}

func TestPollStepsLargeOffset(t *testing.T) {
	sched := netsim.NewScheduler()
	net, names := buildPoolNet(sched, 3, 0)
	clk := clock.NewSim(clock.Config{InitialOffset: 2 * time.Second, Seed: 1}, epoch, sched.Now)

	var u Update
	var err error
	sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: net, Proc: p, Clock: clk}
		c := New(clk, tr, Config{Servers: names})
		u, err = c.Poll()
	})
	sched.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !u.Stepped {
		t.Error("2s offset should step")
	}
	if got := clk.TrueOffset(); got < -20*time.Millisecond || got > 20*time.Millisecond {
		t.Errorf("clock error after step = %v", got)
	}
}

func TestPollIdentifiesFalseticker(t *testing.T) {
	sched := netsim.NewScheduler()
	net, names := buildPoolNet(sched, 3, 700*time.Millisecond)
	clk := clock.NewSim(clock.Config{Seed: 2}, epoch, sched.Now)

	var u Update
	var err error
	sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: net, Proc: p, Clock: clk}
		c := New(clk, tr, Config{Servers: names})
		u, err = c.Poll()
	})
	sched.Run()
	if err != nil {
		t.Fatal(err)
	}
	if u.Falsetickers != 1 {
		t.Errorf("falsetickers = %d, want 1", u.Falsetickers)
	}
	// The combined offset must not be dragged toward the falseticker.
	if u.Offset > 50*time.Millisecond || u.Offset < -50*time.Millisecond {
		t.Errorf("combined offset = %v", u.Offset)
	}
}

func TestDisciplineHoldsDriftingClock(t *testing.T) {
	// A 25 ppm clock disciplined for 2 h of virtual time must stay
	// within ~15 ms of true time after convergence (the paper's
	// "with NTP clock correction" baseline behaviour).
	sched := netsim.NewScheduler()
	net, names := buildPoolNet(sched, 4, 0)
	clk := clock.NewSim(clock.Config{
		InitialOffset: 300 * time.Millisecond, SkewPPM: 25, Seed: 3,
	}, epoch, sched.Now)

	var worstLate time.Duration
	sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: net, Proc: p, Clock: clk}
		c := New(clk, tr, Config{Servers: names, MaxPoll: 128 * time.Second})
		for p.Now() < 2*time.Hour {
			u, err := c.Poll()
			if err != nil {
				t.Errorf("poll at %v: %v", p.Now(), err)
				return
			}
			if p.Now() > 30*time.Minute {
				off := clk.TrueOffset()
				if off < 0 {
					off = -off
				}
				if off > worstLate {
					worstLate = off
				}
			}
			p.Sleep(u.Poll)
		}
	})
	sched.Run()
	if worstLate > 15*time.Millisecond {
		t.Errorf("worst post-convergence error = %v, want ≤ 15ms", worstLate)
	}
}

func TestPollAdaptsInterval(t *testing.T) {
	sched := netsim.NewScheduler()
	net, names := buildPoolNet(sched, 3, 0)
	clk := clock.NewSim(clock.Config{Seed: 4}, epoch, sched.Now)

	var first, later time.Duration
	sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: net, Proc: p, Clock: clk}
		c := New(clk, tr, Config{Servers: names, MaxPoll: 256 * time.Second})
		first = c.pollInterval()
		for i := 0; i < 10; i++ {
			u, err := c.Poll()
			if err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			p.Sleep(u.Poll)
		}
		later = c.pollInterval()
	})
	sched.Run()
	if later <= first {
		t.Errorf("poll interval did not widen: first %v, later %v", first, later)
	}
}

func TestPollAllUnreachable(t *testing.T) {
	sched := netsim.NewScheduler()
	net := netsim.NewNetwork(sched)
	lossy := netsim.FuncPath(func(time.Duration, netsim.Direction) (time.Duration, bool) { return 0, true })
	truth := clock.NewTrue(epoch, sched.Now)
	net.AddServer(netsim.NewServer("dead", truth, 2, 1), lossy)
	clk := clock.NewSim(clock.Config{Seed: 5}, epoch, sched.Now)

	var err error
	sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: net, Proc: p, Clock: clk}
		c := New(clk, tr, Config{Servers: []string{"dead"}})
		_, err = c.Poll()
	})
	sched.Run()
	if err == nil {
		t.Error("unreachable pool should error")
	}
}

// kodTransport returns KoD for one named server, success elsewhere.
type kodTransport struct {
	inner    exchange.Transport
	kodFor   string
	kodCalls int
}

func (k *kodTransport) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	if server == k.kodFor {
		k.kodCalls++
		resp := &ntppkt.Packet{
			Leap: ntppkt.LeapNotSync, Version: req.Version, Mode: ntppkt.ModeServer,
			Stratum: ntppkt.StratumKoD, RefID: ntppkt.KissRate, Origin: req.Transmit,
		}
		return resp, time.Time{}, nil
	}
	return k.inner.Exchange(server, req)
}

func TestKoDDemobilizesPeer(t *testing.T) {
	sched := netsim.NewScheduler()
	net, names := buildPoolNet(sched, 3, 0)
	clk := clock.NewSim(clock.Config{Seed: 6}, epoch, sched.Now)

	sched.Go(func(p *netsim.Proc) {
		inner := &netsim.Transport{Net: net, Proc: p, Clock: clk}
		kt := &kodTransport{inner: inner, kodFor: names[0]}
		// Cap the poll interval so all ten polls fall inside one
		// demobilization period.
		c := New(clk, kt, Config{Servers: names, MaxPoll: 64 * time.Second})
		for i := 0; i < 10; i++ {
			if _, err := c.Poll(); err != nil {
				t.Errorf("poll %d: %v", i, err)
				return
			}
			p.Sleep(c.pollInterval())
		}
		// The KoD server must have been queried exactly once within
		// the demobilization period.
		if kt.kodCalls != 1 {
			t.Errorf("KoD server queried %d times, want 1 (demobilized)", kt.kodCalls)
		}
	})
	sched.Run()
}

func TestPollPanicRefusesImplausibleJump(t *testing.T) {
	sched := netsim.NewScheduler()
	net, names := buildPoolNet(sched, 3, 0)
	clk := clock.NewSim(clock.Config{Seed: 8}, epoch, sched.Now)

	sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: net, Proc: p, Clock: clk}
		c := New(clk, tr, Config{Servers: names})
		// First poll synchronizes and arms the panic gate.
		if _, err := c.Poll(); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(30 * time.Second)
		// Something yanks the local clock an hour off. Once the +1h
		// offset works through the peer filters' 8-sample registers
		// (stale pre-step samples win the min-delay pick for a few
		// rounds), it exceeds the panic threshold and the discipline
		// must refuse it rather than "correct" by stepping.
		clk.Step(-time.Hour)
		var sawPanic bool
		for i := 0; i < 12; i++ {
			u, err := c.Poll()
			if err != nil {
				continue // stale/fresh sample mixes can lose consensus
			}
			if u.Panicked {
				if u.Applied {
					t.Errorf("poll %d: update %+v both panicked and applied", i, u)
				}
				sawPanic = true
			}
			p.Sleep(16 * time.Second)
		}
		if !sawPanic {
			t.Error("1h jump never tripped the panic gate")
		}
		off := clk.TrueOffset()
		if off > -59*time.Minute {
			t.Errorf("clock moved despite panic: true offset %v", off)
		}
	})
	sched.Run()
}

func TestInitialFreqClampedThroughSharedBound(t *testing.T) {
	sched := netsim.NewScheduler()
	net, names := buildPoolNet(sched, 1, 0)
	_ = net
	clk := clock.NewSim(clock.Config{Seed: 9}, epoch, sched.Now)
	// A corrupt drift file claims 9000 ppm; the shared clamp caps it.
	c := New(clk, nil, Config{Servers: names, InitialFreq: 9000e-6})
	if f := c.freq; f != 500e-6 {
		t.Fatalf("initial freq = %v, want clamped 500ppm", f)
	}
}
