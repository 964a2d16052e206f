package sources

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/ntpnet"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

// memServer is an in-memory NTP server transport: it answers with the
// server clock's time, shifted by offset and reporting wireDelay of
// symmetric path delay (T2/T3 are skewed apart so the four-timestamp
// delay comes out as wireDelay without biasing the offset). t4 is read
// from clientClk.
func memServer(srvClk, clientClk clock.Clock, offset, wireDelay time.Duration) exchange.TransportFunc {
	return func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		now := srvClk.Now().Add(offset)
		return &ntppkt.Packet{
			Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
			Stratum: 2, RefID: [4]byte{'M', 'E', 'M', 0},
			RefTime: ntptime.FromTime(now.Add(-30 * time.Second)),
			Origin:  req.Transmit,
			Receive: ntptime.FromTime(now.Add(wireDelay / 2)),
			// Transmit must echo a time not before Receive on the wire;
			// the skew below models path delay, not server processing.
			Transmit: ntptime.FromTime(now.Add(-wireDelay / 2)),
		}, clientClk.Now(), nil
	}
}

// router dispatches exchanges to per-server transports by name.
type router struct {
	routes map[string]exchange.Transport
}

func (r *router) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	tr, ok := r.routes[server]
	if !ok {
		return nil, time.Time{}, errors.New("router: unknown server " + server)
	}
	return tr.Exchange(server, req)
}

// TestRoundFaultInjection drives a 4-source pool through per-source
// faults — loss, delay skew, a constant-offset falseticker and a KoD
// storm — and checks that health scoring, hold-down and selection each
// demote the right source.
func TestRoundFaultInjection(t *testing.T) {
	clk := newManualClock()
	truth := clk // servers and client share the reference; offsets are explicit
	rt := &router{routes: map[string]exchange.Transport{
		"good": memServer(truth, clk, 0, 4*time.Millisecond),
		"slow": memServer(truth, clk, 0, 200*time.Millisecond),
		"false": &ntpnet.FaultTransport{
			Inner: memServer(truth, clk, 500*time.Millisecond, 4*time.Millisecond),
			Clock: clk, Seed: 3,
		},
		"kod": &ntpnet.FaultTransport{
			Inner: memServer(truth, clk, 0, 4*time.Millisecond),
			Clock: clk, Seed: 5, KoDProb: 1,
		},
	}}
	// "good" additionally loses 30% of its exchanges — reach dips but
	// it must stay the best source.
	rt.routes["good"] = &ntpnet.FaultTransport{
		Inner: rt.routes["good"], Clock: clk, Seed: 7, DropProb: 0.3,
	}

	p := New(clk, rt, Config{
		Servers:     []string{"good", "slow", "false", "kod"},
		Parallelism: 1,
		KoDBaseHold: time.Hour,
	})

	var combined []time.Duration
	for round := 0; round < 12; round++ {
		res := p.Round()
		var samples []exchange.Sample
		var idxs []int
		for _, o := range res.Outcomes {
			if o.OK {
				samples = append(samples, o.Sample)
				idxs = append(idxs, o.Index)
			}
		}
		if sel := p.SelectCombine(samples, idxs); sel.OK {
			combined = append(combined, sel.Offset)
		}
		clk.Advance(15 * time.Second)
	}

	good := statusOf(t, p, "good")
	slow := statusOf(t, p, "slow")
	falseSt := statusOf(t, p, "false")
	kod := statusOf(t, p, "kod")

	if kod.KoDs == 0 || !kod.KoD {
		t.Errorf("kod source: kods=%d holddown=%v, want storm detected", kod.KoDs, kod.KoD)
	}
	if kod.Exchanges != 1 {
		t.Errorf("kod source queried %d times, want 1 (held down after the first)", kod.Exchanges)
	}
	if falseSt.Falseticker < 1 {
		t.Errorf("falseticker weight = %v, want ≥ 1 after repeated flagging", falseSt.Falseticker)
	}
	if good.Failures == 0 {
		t.Error("lossy good source recorded no failures: loss not injected")
	}
	if slow.Delay < 150*time.Millisecond {
		t.Errorf("slow source smoothed delay = %v, want ≈200ms", slow.Delay)
	}
	if best := p.srcs[p.rankedLocked(p.now(), nil)[0]].name; best != "good" {
		t.Errorf("best = %q, want \"good\" (loss hurts less than 200ms delay or lying)", best)
	}
	if good.Score <= slow.Score || good.Score <= falseSt.Score || kod.Score != 0 {
		t.Errorf("score order wrong: good=%.3f slow=%.3f false=%.3f kod=%.3f",
			good.Score, slow.Score, falseSt.Score, kod.Score)
	}
	if len(combined) == 0 {
		t.Fatal("no round produced a combined offset")
	}
	for _, off := range combined {
		if off > 20*time.Millisecond || off < -20*time.Millisecond {
			t.Errorf("combined offset %v dragged off truth (falseticker leak?)", off)
		}
	}
}

// TestRoundBoundedParallelism checks the fan-out semaphore: with
// parallelism 3 over 8 sources, at most 3 exchanges are ever in
// flight, and more than one actually runs concurrently.
func TestRoundBoundedParallelism(t *testing.T) {
	clk := clock.System{}
	var active, peak int32
	slowTr := exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		n := atomic.AddInt32(&active, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		atomic.AddInt32(&active, -1)
		return memServer(clk, clk, 0, time.Millisecond)(server, req)
	})

	servers := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	p := New(clk, slowTr, Config{Servers: servers, Parallelism: 3})
	res := p.Round()

	if res.Exchanges != len(servers) {
		t.Errorf("exchanges = %d, want %d", res.Exchanges, len(servers))
	}
	for _, o := range res.Outcomes {
		if !o.OK {
			t.Errorf("source %s failed: %v", o.Source, o.Err)
		}
	}
	if got := atomic.LoadInt32(&peak); got > 3 {
		t.Errorf("peak concurrency = %d, want ≤ 3 (the semaphore bound)", got)
	} else if got < 2 {
		t.Errorf("peak concurrency = %d, want ≥ 2 (fan-out never overlapped)", got)
	}
}

// TestExchangeDeadline checks the per-exchange wall-clock deadline: a
// transport that hangs past the deadline surfaces errDeadline and is
// billed as a failure.
func TestExchangeDeadline(t *testing.T) {
	clk := clock.System{}
	var mu sync.Mutex
	hung := exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		mu.Lock() // serialize so abandoned goroutines don't pile up racily
		defer mu.Unlock()
		time.Sleep(150 * time.Millisecond)
		return memServer(clk, clk, 0, time.Millisecond)(server, req)
	})
	p := New(clk, hung, Config{
		Servers:         []string{"hung"},
		ExchangeTimeout: 10 * time.Millisecond,
	})
	res := p.Round()
	if res.Exchanges != 1 {
		t.Fatalf("exchanges = %d, want 1", res.Exchanges)
	}
	o := res.Outcomes[0]
	if o.OK || !errors.Is(o.Err, errDeadline) {
		t.Errorf("outcome = OK=%v err=%v, want ErrDeadline", o.OK, o.Err)
	}
	if st := statusOf(t, p, "hung"); st.Failures != 1 || st.Reach != 0 {
		t.Errorf("deadline failure not recorded: failures=%d reach=%08b", st.Failures, st.Reach)
	}
}

// TestMeasureBestFailover checks ranked failover: when the top-ranked
// source starts failing, MeasureBest falls through to the runner-up
// within the same call and bills both attempts.
func TestMeasureBestFailover(t *testing.T) {
	clk := newManualClock()
	var aDown bool
	var mu sync.Mutex
	rt := &router{routes: map[string]exchange.Transport{
		"b": memServer(clk, clk, 0, 10*time.Millisecond),
	}}
	rt.routes["a"] = exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		mu.Lock()
		down := aDown
		mu.Unlock()
		if down {
			return nil, time.Time{}, errors.New("unreachable")
		}
		return memServer(clk, clk, 0, 2*time.Millisecond)(server, req)
	})

	p := New(clk, rt, Config{Servers: []string{"a", "b"}, FailoverTries: 1})
	// Establish a as the better source (lower delay, same reach).
	for i := 0; i < 4; i++ {
		p.Round()
		clk.Advance(15 * time.Second)
	}
	if best := p.srcs[p.rankedLocked(p.now(), nil)[0]].name; best != "a" {
		t.Fatalf("best = %q before failover, want \"a\"", best)
	}

	mu.Lock()
	aDown = true
	mu.Unlock()
	s, outs, err := p.MeasureBest()
	if err != nil {
		t.Fatalf("MeasureBest failed despite a healthy runner-up: %v", err)
	}
	if s.Server != "b" {
		t.Errorf("failover sample came from %q, want \"b\"", s.Server)
	}
	if len(outs) != 2 {
		t.Errorf("attempts = %d, want 2 (a failed, b answered)", len(outs))
	}
	if outs[0].Source != "a" || outs[0].OK || outs[1].Source != "b" || !outs[1].OK {
		t.Errorf("attempt order/outcomes wrong: %+v", outs)
	}

	// After the failure, a's score drops; continued rounds re-rank b
	// on top, so cross-round failover converges too.
	for i := 0; i < 3; i++ {
		p.Round()
		clk.Advance(15 * time.Second)
	}
	if best := p.srcs[p.rankedLocked(p.now(), nil)[0]].name; best != "b" {
		t.Errorf("best = %q after a went dark, want \"b\"", best)
	}
}

// TestMeasureBestAllHeldDown: when every source is in KoD hold-down,
// MeasureBest sends nothing and says so.
func TestMeasureBestAllHeldDown(t *testing.T) {
	clk := newManualClock()
	p := New(clk, nil, Config{Servers: []string{"a", "b"}, KoDBaseHold: time.Hour})
	p.ReportError("a", ntppkt.ErrKissOfDeath)
	p.ReportError("b", ntppkt.ErrKissOfDeath)
	_, outs, err := p.MeasureBest()
	if !errors.Is(err, errNoEligibleSource) {
		t.Errorf("err = %v, want ErrNoEligibleSource", err)
	}
	if len(outs) != 0 {
		t.Errorf("outcomes = %v, want none (no request sent)", outs)
	}
}
