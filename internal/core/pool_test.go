package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/hints"
	"mntp/internal/ntpnet"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/sysclock"
)

// simTime is a manually advanced true-time source, safe for concurrent
// reads from fan-out goroutines.
type simTime struct {
	mu      sync.Mutex
	elapsed time.Duration
}

func (s *simTime) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elapsed
}

func (s *simTime) Advance(d time.Duration) {
	s.mu.Lock()
	s.elapsed += d
	s.mu.Unlock()
}

// simSleeper advances the true-time source instead of blocking.
type simSleeper struct{ t *simTime }

func (s simSleeper) Sleep(d time.Duration) { s.t.Advance(d) }

// memServer answers in-memory with the server clock's time shifted by
// offset, reporting wireDelay of symmetric path delay; t4 is read from
// the client clock.
func memServer(srvClk, clientClk clock.Clock, offset, wireDelay time.Duration) exchange.TransportFunc {
	return func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		now := srvClk.Now().Add(offset)
		return &ntppkt.Packet{
			Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
			Stratum: 2, RefID: [4]byte{'M', 'E', 'M', 0},
			RefTime:  ntptime.FromTime(now.Add(-30 * time.Second)),
			Origin:   req.Transmit,
			Receive:  ntptime.FromTime(now.Add(wireDelay / 2)),
			Transmit: ntptime.FromTime(now.Add(-wireDelay / 2)),
		}, clientClk.Now(), nil
	}
}

// nameRouter dispatches exchanges to per-server transports.
type nameRouter struct {
	routes map[string]exchange.Transport
}

func (r *nameRouter) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	return r.routes[server].Exchange(server, req)
}

// TestWarmupKoDDistinctEventAndHoldDown is the regression test for
// the KoD-handling bug: core used to treat a kiss-of-death like any
// query failure and kept re-querying the rate-limiting server every
// round. A KoD source must be queried exactly once, surface as the
// distinct EventKoD (not EventQueryFailed), and sit out the rest of
// the run in hold-down — mirroring internal/sntp's immediate retry
// abort on ErrKissOfDeath.
func TestWarmupKoDDistinctEventAndHoldDown(t *testing.T) {
	st := &simTime{}
	truth := clock.NewTrue(epoch, st.Now)

	var kodQueries int32
	kodTr := exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		atomic.AddInt32(&kodQueries, 1)
		return &ntppkt.Packet{
			Leap: ntppkt.LeapNotSync, Version: req.Version, Mode: ntppkt.ModeServer,
			Stratum: ntppkt.StratumKoD, RefID: ntppkt.KissRate,
			Origin: req.Transmit,
		}, truth.Now(), nil
	})
	rt := &nameRouter{routes: map[string]exchange.Transport{
		"ref0":   memServer(truth, truth, 0, 4*time.Millisecond),
		"kodref": kodTr,
		"ref2":   memServer(truth, truth, 0, 6*time.Millisecond),
	}}

	params := DefaultParams("ref0")
	params.WarmupServers = []string{"ref0", "kodref", "ref2"}
	params.RegularServer = "ref0"
	params.WarmupPeriod = 3 * time.Minute
	params.WarmupWaitTime = 10 * time.Second
	params.RegularWaitTime = 30 * time.Second
	params.ResetPeriod = 10 * time.Minute
	params.KoDHoldDown = time.Hour

	var kodEvents, kodFailures, accepted int
	c := New(truth, nil, rt, hints.AlwaysFavorable, simSleeper{st}, params)
	c.OnEvent = func(e Event) {
		switch e.Kind {
		case EventKoD:
			kodEvents++
			if e.Source != "kodref" {
				t.Errorf("EventKoD from %q, want kodref", e.Source)
			}
		case EventQueryFailed:
			if e.Source == "kodref" {
				kodFailures++
			}
		case EventAccepted:
			accepted++
		}
	}
	c.Run(6 * time.Minute)

	if got := atomic.LoadInt32(&kodQueries); got != 1 {
		t.Errorf("KoD server queried %d times, want exactly 1 (hold-down)", got)
	}
	if kodEvents != 1 {
		t.Errorf("EventKoD emitted %d times, want 1", kodEvents)
	}
	if kodFailures != 0 {
		t.Errorf("KoD surfaced as EventQueryFailed %d times, want 0 (distinct kind)", kodFailures)
	}
	if accepted == 0 {
		t.Error("warm-up accepted nothing: the two healthy sources should carry the round")
	}
	for _, sst := range c.PoolStatus() {
		if sst.Name == "kodref" {
			if !sst.KoD || sst.KoDs != 1 {
				t.Errorf("kodref pool state: holddown=%v kods=%d, want true/1", sst.KoD, sst.KoDs)
			}
		}
	}
}

// flappyHints scripts the channel: per five readings, reading 1 and 2
// are unfavorable. With the warm-up call pattern (one gate check
// before the round, one re-check after), this produces dropped rounds
// (favorable gate, unfavorable re-check), deferred attempts and clean
// rounds in a repeating mix.
type flappyHints struct{ n int }

func (f *flappyHints) Hints() hints.Hints {
	i := f.n
	f.n++
	if i%5 == 1 || i%5 == 2 {
		return hints.Hints{RSSI: -80, Noise: -60} // unfavorable on every gate
	}
	return hints.Hints{RSSI: -50, Noise: -95}
}

// TestRequestAccountingMatchesWire pins the request-accounting audit:
// Requests() must equal the number of exchanges that actually reached
// the transport — deferred attempts (no send) bill nothing, dropped
// samples (channel degraded mid-exchange) still bill theirs, and
// sources inside KoD hold-down are not billed for skipped slots.
func TestRequestAccountingMatchesWire(t *testing.T) {
	st := &simTime{}
	truth := clock.NewTrue(epoch, st.Now)

	var wire int32
	inner := &nameRouter{routes: map[string]exchange.Transport{
		"ref0": memServer(truth, truth, 0, 4*time.Millisecond),
		"ref1": memServer(truth, truth, 0, 6*time.Millisecond),
		"kodref": &ntpnet.FaultTransport{
			Inner: memServer(truth, truth, 0, 4*time.Millisecond),
			Clock: truth, Seed: 11, KoDProb: 1,
		},
	}}
	counting := exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		atomic.AddInt32(&wire, 1)
		return inner.Exchange(server, req)
	})

	params := DefaultParams("ref0")
	params.WarmupServers = []string{"ref0", "ref1", "kodref"}
	params.RegularServer = "ref0"
	params.WarmupPeriod = 3 * time.Minute
	params.WarmupWaitTime = 10 * time.Second
	params.RegularWaitTime = 20 * time.Second
	params.ResetPeriod = 20 * time.Minute
	params.KoDHoldDown = time.Hour

	var deferred, dropped int
	var lastRequests int
	c := New(truth, nil, counting, &flappyHints{}, simSleeper{st}, params)
	c.OnEvent = func(e Event) {
		switch e.Kind {
		case EventDeferred:
			deferred++
		case eventDropped:
			dropped++
		}
		lastRequests = e.Requests
	}
	c.Run(10 * time.Minute)

	if got, want := c.Requests(), int(atomic.LoadInt32(&wire)); got != want {
		t.Errorf("Requests() = %d, wire exchanges = %d — accounting out of sync", got, want)
	}
	if deferred == 0 {
		t.Error("flappy channel never deferred: the no-send path was not exercised")
	}
	if dropped == 0 {
		t.Error("flappy channel never dropped a mid-exchange sample: the billed-drop path was not exercised")
	}
	if lastRequests != c.Requests() {
		t.Errorf("last event carried Requests=%d, client says %d", lastRequests, c.Requests())
	}
}

// TestMNTPPoolFaultInjectionFullCycle is the acceptance scenario: a
// full warm-up plus regular cycle with the clock being corrected,
// while one of the three sources is a 500 ms falseticker and another
// serves kiss-of-death storms. The client must converge its clock on
// the one good source, and the pool status must reflect both
// demotions.
func TestMNTPPoolFaultInjectionFullCycle(t *testing.T) {
	st := &simTime{}
	truth := clock.NewTrue(epoch, st.Now)
	clk := clock.NewSim(clock.Config{
		InitialOffset: 80 * time.Millisecond, SkewPPM: 30, Seed: 13,
	}, epoch, st.Now)

	rt := &nameRouter{routes: map[string]exchange.Transport{
		"good":  memServer(truth, clk, 0, 4*time.Millisecond),
		"false": memServer(truth, clk, 500*time.Millisecond, 4*time.Millisecond),
		"kod": &ntpnet.FaultTransport{
			Inner: memServer(truth, clk, 0, 4*time.Millisecond),
			Clock: clk, Seed: 5, KoDProb: 0.7,
		},
	}}

	params := DefaultParams("good")
	params.WarmupServers = []string{"good", "false", "kod"}
	params.RegularServer = "good"
	params.Parallelism = 3 // genuine concurrent fan-out (exercised under -race)
	params.WarmupPeriod = 10 * time.Minute
	params.WarmupWaitTime = 15 * time.Second
	params.RegularWaitTime = 30 * time.Second
	params.ResetPeriod = time.Hour
	params.KoDHoldDown = 2 * time.Minute

	var kodEvents, falseTickerEvents, regularAccepted int
	var sawDriftCorrection bool
	c := New(clk, sysclock.SimAdjuster{Clock: clk}, rt, hints.AlwaysFavorable, simSleeper{st}, params)
	c.OnEvent = func(e Event) {
		switch e.Kind {
		case EventKoD:
			kodEvents++
			if e.Source != "kod" {
				t.Errorf("EventKoD from %q, want the kod source", e.Source)
			}
		case EventFalseTicker:
			falseTickerEvents++
			if e.Source != "false" {
				t.Errorf("EventFalseTicker names %q, want the falseticker", e.Source)
			}
		case EventDriftCorrected:
			sawDriftCorrection = true
		case EventAccepted:
			if e.Phase == phaseRegular {
				regularAccepted++
			}
		}
	}
	c.Run(25 * time.Minute)

	if kodEvents == 0 {
		t.Error("KoD storm never surfaced as EventKoD")
	}
	if falseTickerEvents == 0 {
		t.Error("500ms falseticker never flagged")
	}
	if !sawDriftCorrection {
		t.Error("warm-up trend never produced a drift correction")
	}
	if regularAccepted == 0 {
		t.Fatal("regular phase accepted nothing: no clock corrections happened")
	}

	// The clock started 80 ms off with 30 ppm of skew; after a full
	// warm-up + regular cycle it must be corrected.
	off := clk.TrueOffset()
	if off < 0 {
		off = -off
	}
	if off > 25*time.Millisecond {
		t.Errorf("clock true offset after full cycle = %v, want ≤ 25ms", clk.TrueOffset())
	}

	// Pool status reflects both demotions, and the good source won.
	var goodScore, falseScore, kodScore float64
	for _, sst := range c.PoolStatus() {
		switch sst.Name {
		case "good":
			goodScore = sst.Score
		case "false":
			falseScore = sst.Score
			if sst.Falseticker < 1 {
				t.Errorf("falseticker demotion weight = %v, want ≥ 1", sst.Falseticker)
			}
		case "kod":
			kodScore = sst.Score
			if sst.KoDs == 0 {
				t.Error("kod source shows no KoDs in pool status")
			}
		}
	}
	if goodScore <= falseScore || goodScore <= kodScore {
		t.Errorf("good must out-rank both demoted sources: good=%.3f false=%.3f kod=%.3f",
			goodScore, falseScore, kodScore)
	}
}
