package sntp

import (
	"errors"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/netsim"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

var epoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

// flakyTransport fails the first n exchanges, then answers with a
// fixed server offset.
type flakyTransport struct {
	failures    int
	serverAhead time.Duration
	clk         clock.Clock
	calls       int
}

func (f *flakyTransport) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, time.Time{}, errors.New("lost")
	}
	now := f.clk.Now()
	srvNow := now.Add(f.serverAhead)
	resp := &ntppkt.Packet{
		Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
		Stratum: 2, Origin: req.Transmit,
		Receive: ntptime.FromTime(srvNow), Transmit: ntptime.FromTime(srvNow),
	}
	return resp, now, nil
}

type countingSleeper struct {
	slept []time.Duration
}

func (c *countingSleeper) Sleep(d time.Duration) { c.slept = append(c.slept, d) }

type fixedClock struct{ t time.Time }

func (f *fixedClock) Now() time.Time { return f.t }

func TestQueryRetriesThenSucceeds(t *testing.T) {
	clk := &fixedClock{t: epoch}
	tr := &flakyTransport{failures: 2, serverAhead: 80 * time.Millisecond, clk: clk}
	sl := &countingSleeper{}
	c := New(clk, tr, sl, Config{Server: "s", Retries: 3, RetryWait: time.Second})
	s, err := c.Query()
	if err != nil {
		t.Fatal(err)
	}
	if tr.calls != 3 {
		t.Errorf("calls = %d, want 3", tr.calls)
	}
	if len(sl.slept) != 2 {
		t.Errorf("retry sleeps = %d, want 2", len(sl.slept))
	}
	if d := s.Offset - 80*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("offset = %v", s.Offset)
	}
}

func TestQueryExhaustsRetries(t *testing.T) {
	clk := &fixedClock{t: epoch}
	tr := &flakyTransport{failures: 100, clk: clk}
	c := New(clk, tr, &countingSleeper{}, Config{Server: "s", Retries: 3})
	if _, err := c.Query(); err == nil {
		t.Fatal("expected failure")
	}
	if tr.calls != 4 { // initial + 3 retries
		t.Errorf("calls = %d, want 4", tr.calls)
	}
}

func TestWindowsMobileNoRetries(t *testing.T) {
	clk := &fixedClock{t: epoch}
	tr := &flakyTransport{failures: 1, clk: clk}
	c := New(clk, tr, &countingSleeper{}, WindowsMobileConfig("s"))
	if _, err := c.Query(); err == nil {
		t.Fatal("expected failure with zero retries")
	}
	if tr.calls != 1 {
		t.Errorf("calls = %d, want 1", tr.calls)
	}
}

func TestSyncOnceStepsAdjustableClock(t *testing.T) {
	mt := time.Duration(0)
	sim := clock.NewSim(clock.Config{InitialOffset: -300 * time.Millisecond, Seed: 1},
		epoch, func() time.Duration { return mt })
	tr := &flakyTransport{serverAhead: 0, clk: clock.NewTrue(epoch, func() time.Duration { return mt })}
	// The transport answers relative to true time, so the fast/slow
	// client measures its own error. Use the sim clock for T1/T4.
	tr.clk = clock.NewTrue(epoch, func() time.Duration { return mt })
	c := New(sim, &trueServerTransport{truth: tr.clk, client: sim}, nil, Config{Server: "s"})
	s, updated, err := c.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !updated {
		t.Fatal("clock not updated")
	}
	if d := s.Offset - 300*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("measured offset = %v, want ~300ms", s.Offset)
	}
	if got := sim.TrueOffset(); got < -time.Millisecond || got > time.Millisecond {
		t.Errorf("clock error after sync = %v, want ~0", got)
	}
}

// trueServerTransport serves true time instantly (zero path delay).
type trueServerTransport struct {
	truth  clock.Clock
	client clock.Clock
}

func (tr *trueServerTransport) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	now := tr.truth.Now()
	resp := &ntppkt.Packet{
		Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
		Stratum: 1, Origin: req.Transmit,
		Receive: ntptime.FromTime(now), Transmit: ntptime.FromTime(now),
	}
	return resp, tr.client.Now(), nil
}

func TestAndroidUpdateThreshold(t *testing.T) {
	mt := time.Duration(0)
	trueNow := func() time.Duration { return mt }
	// 2 s fast: below Android's 5000 ms threshold → no update.
	sim := clock.NewSim(clock.Config{InitialOffset: 2 * time.Second, Seed: 1}, epoch, trueNow)
	tr := &trueServerTransport{truth: clock.NewTrue(epoch, trueNow), client: sim}
	c := New(sim, tr, nil, AndroidConfig("s"))
	_, updated, err := c.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if updated {
		t.Error("sub-threshold offset applied")
	}
	if got := sim.TrueOffset(); got != 2*time.Second {
		t.Errorf("clock changed to %v", got)
	}

	// 8 s fast: above threshold → update.
	sim2 := clock.NewSim(clock.Config{InitialOffset: 8 * time.Second, Seed: 1}, epoch, trueNow)
	tr2 := &trueServerTransport{truth: clock.NewTrue(epoch, trueNow), client: sim2}
	c2 := New(sim2, tr2, nil, AndroidConfig("s"))
	_, updated2, err := c2.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !updated2 {
		t.Error("above-threshold offset not applied")
	}
	if got := sim2.TrueOffset(); got < -time.Millisecond || got > time.Millisecond {
		t.Errorf("clock error after update = %v", got)
	}
}

func TestSyncOnceNonAdjustableClock(t *testing.T) {
	clk := &fixedClock{t: epoch}
	tr := &flakyTransport{clk: clk}
	c := New(clk, tr, nil, Config{Server: "s"})
	_, updated, err := c.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if updated {
		t.Error("non-adjustable clock reported as updated")
	}
}

// End-to-end through the simulated network: an SNTP client over a
// wired path tracks the reference within a few ms (the paper's wired
// baseline).
func TestSNTPOverSimulatedWiredNetwork(t *testing.T) {
	sched := netsim.NewScheduler()
	truth := clock.NewTrue(epoch, sched.Now)
	srv := netsim.NewServer("ref", truth, 1, 1)
	net := netsim.NewNetwork(sched)
	net.AddServer(srv, netsim.NewWiredPath(15*time.Millisecond, 2*time.Millisecond, 0, 0, 2))
	sim := clock.NewSim(clock.Config{InitialOffset: 400 * time.Millisecond, SkewPPM: 20, Seed: 3},
		epoch, sched.Now)

	var finalErr time.Duration
	sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: net, Proc: p, Clock: sim}
		c := New(sim, tr, p, Config{Server: "ref"})
		for i := 0; i < 120; i++ { // 10 min at 5 s cadence
			if _, _, err := c.SyncOnce(); err != nil {
				t.Errorf("sync %d: %v", i, err)
				return
			}
			p.Sleep(5 * time.Second)
		}
		finalErr = sim.TrueOffset()
	})
	sched.Run()
	if finalErr < -10*time.Millisecond || finalErr > 10*time.Millisecond {
		t.Errorf("final clock error = %v, want within 10ms", finalErr)
	}
}
