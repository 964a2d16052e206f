package ntpnet

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/core"
	"mntp/internal/exchange"
	"mntp/internal/hints"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/sntp"
)

// goodTransport returns a TransportFunc that always answers like a
// well-behaved server whose clock is ahead of clk's by ahead.
func goodTransport(clk clock.Clock, ahead time.Duration, calls *int) exchange.TransportFunc {
	return func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		*calls++
		now := clk.Now()
		srv := ntptime.FromTime(now.Add(ahead))
		return &ntppkt.Packet{
			Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
			Stratum: 2, Origin: req.Transmit,
			Receive: srv, Transmit: srv,
		}, now, nil
	}
}

func TestSNTPKoDStormAbortsRetries(t *testing.T) {
	// A kiss-of-death storm: every reply is RATE. The SNTP retry loop
	// must stop after the first KoD instead of hammering the server.
	var calls int
	ft := &FaultTransport{
		Inner:   goodTransport(clock.System{}, 0, &calls),
		KoDProb: 1, Seed: 1,
	}
	cl := sntp.New(clock.System{}, ft, sntp.WallSleeper{},
		sntp.Config{Server: "s", Retries: 5, RetryWait: time.Millisecond})
	if _, err := cl.Query(); !errors.Is(err, ntppkt.ErrKissOfDeath) {
		t.Fatalf("err = %v, want kiss-of-death", err)
	}
	if st := ft.Stats(); st.Exchanges != 1 || st.KoDs != 1 {
		t.Errorf("stats = %+v: client retried into the KoD storm", st)
	}
	if calls != 0 {
		t.Errorf("inner transport reached %d times through a total KoD storm", calls)
	}
}

func TestSNTPRetriesThroughLoss(t *testing.T) {
	var calls int
	ft := &FaultTransport{
		Inner:     goodTransport(clock.System{}, 80*time.Millisecond, &calls),
		DropFirst: 2,
	}
	cl := sntp.New(clock.System{}, ft, sntp.WallSleeper{},
		sntp.Config{Server: "s", Retries: 3, RetryWait: time.Millisecond})
	s, err := cl.Query()
	if err != nil {
		t.Fatalf("query through 2 losses: %v", err)
	}
	if d := s.Offset - 80*time.Millisecond; d < -10*time.Millisecond || d > 10*time.Millisecond {
		t.Errorf("offset = %v, want ~80ms", s.Offset)
	}
	if st := ft.Stats(); st.Exchanges != 3 || st.Dropped != 2 {
		t.Errorf("stats = %+v, want 3 exchanges / 2 drops", st)
	}
}

func TestDuplicateReplyRejectedThenRecovered(t *testing.T) {
	// DupProb=1: each genuine reply is recorded and replayed as the
	// answer to the next exchange, where its origin no longer echoes
	// the request — validation must reject it, and the retry must
	// then receive the genuine reply.
	var calls int
	ft := &FaultTransport{
		Inner:   goodTransport(clock.System{}, 0, &calls),
		DupProb: 1, Seed: 7,
	}
	cl := sntp.New(clock.System{}, ft, sntp.WallSleeper{},
		sntp.Config{Server: "s", Retries: 2, RetryWait: time.Millisecond})
	if _, err := cl.Query(); err != nil {
		t.Fatalf("first query: %v", err)
	}
	if _, err := cl.Query(); err != nil {
		t.Fatalf("second query (stale duplicate first): %v", err)
	}
	st := ft.Stats()
	if st.Duplicated == 0 {
		t.Error("no duplicate was replayed")
	}
	// First query: 1 exchange. Second: stale replayed (rejected by
	// validation) + 1 genuine retry = 3 total.
	if st.Exchanges != 3 {
		t.Errorf("exchanges = %d, want 3", st.Exchanges)
	}
}

func TestCorruptedReplyFailsExchange(t *testing.T) {
	var calls int
	ft := &FaultTransport{
		Inner:       goodTransport(clock.System{}, 0, &calls),
		CorruptProb: 1, Seed: 3,
	}
	// With every reply corrupted, repeated queries must keep erroring
	// or — when the flipped bit lands in a field validation ignores —
	// still return a decodable sample; either way nothing panics and
	// the corruption counter advances.
	cl := sntp.New(clock.System{}, ft, sntp.WallSleeper{},
		sntp.Config{Server: "s", Retries: 0})
	var failures int
	for i := 0; i < 32; i++ {
		if _, err := cl.Query(); err != nil {
			failures++
		}
	}
	st := ft.Stats()
	if st.Corrupted != 32 {
		t.Errorf("corrupted = %d, want 32", st.Corrupted)
	}
	if failures == 0 {
		t.Error("32 corrupted replies and no exchange failed (bit flips never hit a validated field?)")
	}
}

func staticFavorable() hints.Provider {
	return hints.ProviderFunc(func() hints.Hints {
		return hints.Hints{RSSI: -50, Noise: -95}
	})
}

func TestMNTPThroughFaultStormOverUDP(t *testing.T) {
	// The full MNTP client over real loopback UDP behind a storm of
	// loss, duplication and corruption: the run must complete, accept
	// samples, and never treat a stray reply as the answer.
	srv := NewServer(clock.System{}, 2)
	srv.Workers = 4
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ft := &FaultTransport{
		Inner:    &Client{Timeout: 300 * time.Millisecond},
		DropProb: 0.2, DupProb: 0.2, CorruptProb: 0.1, Seed: 42,
	}
	params := core.DefaultParams(addr.String())
	params.WarmupServers = []string{addr.String(), addr.String(), addr.String()}
	params.RegularServer = addr.String()
	params.WarmupPeriod = 500 * time.Millisecond
	params.WarmupWaitTime = 30 * time.Millisecond
	params.RegularWaitTime = 30 * time.Millisecond
	params.ResetPeriod = 2 * time.Second
	params.HintPollInterval = 10 * time.Millisecond

	var accepted, failed int
	c := core.New(clock.System{}, nil, ft, staticFavorable(), sntp.WallSleeper{}, params)
	c.OnEvent = func(e core.Event) {
		switch e.Kind {
		case core.EventAccepted:
			accepted++
		case core.EventQueryFailed:
			failed++
		}
	}
	c.Run(1200 * time.Millisecond)

	if accepted == 0 {
		t.Error("no samples accepted through the fault storm")
	}
	st := ft.Stats()
	if st.Dropped == 0 {
		t.Errorf("storm injected nothing: %+v", st)
	}
	snap := srv.Snapshot()
	if snap.Served == 0 {
		t.Error("server served nothing")
	}
}

func TestMNTPKoDStormMakesNoProgress(t *testing.T) {
	// Under a total KoD storm every query draws a kiss-of-death: MNTP
	// must surface the distinct KoD event, hold the source down (no
	// retry hammering), and accept nothing — without panicking or
	// looping faster than its configured cadence.
	var calls int
	ft := &FaultTransport{
		Inner:   goodTransport(clock.System{}, 0, &calls),
		KoDProb: 1, Seed: 5,
	}
	params := core.DefaultParams("s")
	params.WarmupPeriod = 100 * time.Millisecond
	params.WarmupWaitTime = 10 * time.Millisecond
	params.RegularWaitTime = 10 * time.Millisecond
	params.ResetPeriod = 300 * time.Millisecond
	params.HintPollInterval = 5 * time.Millisecond

	var accepted, kod int
	c := core.New(clock.System{}, nil, ft, staticFavorable(), sntp.WallSleeper{}, params)
	c.OnEvent = func(e core.Event) {
		switch e.Kind {
		case core.EventAccepted:
			accepted++
		case core.EventKoD:
			kod++
		}
	}
	c.Run(250 * time.Millisecond)

	if accepted != 0 {
		t.Errorf("%d samples accepted from a pure KoD storm", accepted)
	}
	if kod == 0 {
		t.Error("no KoD events surfaced")
	}
	if calls != 0 {
		t.Errorf("inner transport reached %d times", calls)
	}
}

// TestFaultTransportNeverSeesRecycledRequest: exchange.Measure recycles
// its request packet once Exchange returns. Eight goroutines measure
// through one FaultTransport that delays every exchange and duplicates
// half the replies; the transport underneath requires its request to
// stay as it was for as long as its call lasts. Under -race, a packet
// handed to a second exchange too early is also a reported data race.
func TestFaultTransportNeverSeesRecycledRequest(t *testing.T) {
	clk := clock.System{}
	inner := exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		before := *req
		time.Sleep(50 * time.Microsecond)
		if req.Transmit != before.Transmit || req.Mode != before.Mode || len(req.Ext) != 0 {
			t.Errorf("request changed during its exchange: %+v, was %+v", *req, before)
		}
		srv := ntptime.FromTime(clk.Now())
		return &ntppkt.Packet{
			Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
			Stratum: 2, Origin: before.Transmit, Receive: srv, Transmit: srv,
		}, clk.Now(), nil
	})
	ft := &FaultTransport{Inner: inner, Clock: clk, Seed: 9, DupProb: 0.5, Delay: 20 * time.Microsecond, Jitter: 50 * time.Microsecond}
	var wg sync.WaitGroup
	var ok atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// A duplicated reply answers the wrong request and fails
				// validation; that is the fault, not the subject.
				if _, err := exchange.Measure(clk, ft, "s", ntppkt.Version4, i%2 == 0); err == nil {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if st := ft.Stats(); ok.Load() == 0 || st.Duplicated == 0 {
		t.Errorf("%d measurements succeeded, %d replies duplicated: the faults did not mix", ok.Load(), st.Duplicated)
	}
}
