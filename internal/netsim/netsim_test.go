package netsim

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mntp/internal/clock"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

var epoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.at(2*time.Second, func() { order = append(order, 2) })
	s.at(time.Second, func() { order = append(order, 1) })
	s.at(2*time.Second, func() { order = append(order, 3) }) // same time: FIFO
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	s.at(time.Second, func() {
		s.After(3*time.Second, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 1 || fired[0] != 4*time.Second {
		t.Errorf("fired = %v", fired)
	}
}

func TestSchedulerPastEventRunsNow(t *testing.T) {
	s := NewScheduler()
	s.at(5*time.Second, func() {
		s.at(time.Second, func() { // in the past
			if s.Now() != 5*time.Second {
				t.Errorf("past event ran at %v", s.Now())
			}
		})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	ran := 0
	s.at(time.Second, func() { ran++ })
	s.at(10*time.Second, func() { ran++ })
	s.runUntil(5 * time.Second)
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("now = %v, want 5s", s.Now())
	}
	if len(s.events) != 1 {
		t.Errorf("pending = %d", len(s.events))
	}
}

func TestEvery(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.Every(time.Second, 2*time.Second, func() bool {
		count++
		return count < 4
	})
	s.Run()
	if count != 4 {
		t.Errorf("count = %d", count)
	}
	if s.Now() != 7*time.Second { // 1, 3, 5, 7
		t.Errorf("end time = %v", s.Now())
	}
}

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	s := NewScheduler()
	var at1, at2 time.Duration
	s.Go(func(p *Proc) {
		at1 = p.Now()
		p.Sleep(90 * time.Minute)
		at2 = p.Now()
	})
	s.Run()
	if at1 != 0 || at2 != 90*time.Minute {
		t.Errorf("proc times = %v, %v", at1, at2)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := NewScheduler()
		var log []string
		s.Go(func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "a")
				p.Sleep(2 * time.Second)
			}
		})
		s.Go(func(p *Proc) {
			p.Sleep(time.Second)
			for i := 0; i < 3; i++ {
				log = append(log, "b")
				p.Sleep(2 * time.Second)
			}
		})
		s.Run()
		return log
	}
	first := run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(first) != len(want) {
		t.Fatalf("log = %v", first)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log = %v, want %v", first, want)
		}
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("interleaving not deterministic")
		}
	}
}

func TestProcStop(t *testing.T) {
	s := NewScheduler()
	iters := 0
	var p1 *Proc
	s.Go(func(p *Proc) {
		p1 = p
		for {
			iters++
			p.Sleep(time.Second)
		}
	})
	s.at(5500*time.Millisecond, func() { p1.stop() })
	s.Run()
	if iters != 6 { // t=0,1,2,3,4,5 then stop takes effect at next sleep
		t.Errorf("iterations = %d, want 6", iters)
	}
}

func TestWiredPathProperties(t *testing.T) {
	p := NewWiredPath(20*time.Millisecond, 2*time.Millisecond, 4*time.Millisecond, 0, 1)
	var upSum, downSum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		up, lost := p.SampleOneWay(0, Uplink)
		if lost {
			t.Fatal("lossless path lost a packet")
		}
		down, _ := p.SampleOneWay(0, Downlink)
		if up < 22*time.Millisecond {
			t.Fatalf("uplink %v below base+asym/2", up)
		}
		if down < 18*time.Millisecond {
			t.Fatalf("downlink %v below base-asym/2", down)
		}
		upSum += up
		downSum += down
	}
	meanUp := upSum / n
	meanDown := downSum / n
	if d := meanUp - meanDown; d < 3*time.Millisecond || d > 5*time.Millisecond {
		t.Errorf("asymmetry = %v, want ~4ms", d)
	}
}

func TestWiredPathLoss(t *testing.T) {
	p := NewWiredPath(time.Millisecond, 0, 0, 0.25, 2)
	lost := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if _, l := p.SampleOneWay(0, Uplink); l {
			lost++
		}
	}
	frac := float64(lost) / n
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("loss fraction = %v, want ~0.25", frac)
	}
}

func TestCompositePath(t *testing.T) {
	a := FuncPath(func(time.Duration, Direction) (time.Duration, bool) { return 5 * time.Millisecond, false })
	b := FuncPath(func(time.Duration, Direction) (time.Duration, bool) { return 7 * time.Millisecond, false })
	c := &CompositePath{Segments: []PathModel{a, b}}
	d, lost := c.SampleOneWay(0, Uplink)
	if lost || d != 12*time.Millisecond {
		t.Errorf("composite = %v lost=%v", d, lost)
	}
	lossy := FuncPath(func(time.Duration, Direction) (time.Duration, bool) { return 0, true })
	c2 := &CompositePath{Segments: []PathModel{a, lossy}}
	if _, lost := c2.SampleOneWay(0, Uplink); !lost {
		t.Error("composite should propagate loss")
	}
}

// buildNet wires a scheduler, a perfect server and a client clock with
// a known offset, connected by a symmetric path.
func buildNet(t testing.TB, clientOffset time.Duration, path PathModel) (*Scheduler, *Network, *clock.Sim) {
	t.Helper()
	s := NewScheduler()
	truth := clock.NewTrue(epoch, s.Now)
	srv := NewServer("ref0", truth, 1, 10)
	srv.ProcMin, srv.ProcMax = 0, 0
	n := NewNetwork(s)
	n.AddServer(srv, path)
	cl := clock.NewSim(clock.Config{InitialOffset: clientOffset, Seed: 5}, epoch, s.Now)
	return s, n, cl
}

func TestExchangeComputesKnownOffset(t *testing.T) {
	sym := FuncPath(func(time.Duration, Direction) (time.Duration, bool) {
		return 25 * time.Millisecond, false
	})
	s, n, cl := buildNet(t, 140*time.Millisecond, sym)

	var offset, delay time.Duration
	s.Go(func(p *Proc) {
		tr := &Transport{Net: n, Proc: p, Clock: cl}
		t1 := cl.Now()
		req := ntppkt.NewSNTPClient(ntppkt.Version4, ntptime.FromTime(t1))
		resp, t4, err := tr.Exchange("ref0", req)
		if err != nil {
			t.Errorf("exchange: %v", err)
			return
		}
		t1ts, t4ts := ntptime.FromTime(t1), ntptime.FromTime(t4)
		offset = (resp.Receive.Sub(t1ts) + resp.Transmit.Sub(t4ts)) / 2
		delay = t4ts.Sub(t1ts) - resp.Transmit.Sub(resp.Receive)
	})
	s.Run()

	// Client is 140 ms fast; symmetric path → measured offset ≈ −140 ms.
	if d := offset + 140*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("offset = %v, want ~-140ms", offset)
	}
	if d := delay - 50*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("delay = %v, want ~50ms", delay)
	}
}

func TestExchangeAsymmetryBiasesOffset(t *testing.T) {
	// Uplink 100 ms, downlink 20 ms: T2−T1 = 100 ms, T3−T4 = −20 ms,
	// so measured offset = (up−down)/2 = +40 ms despite a perfect clock.
	asym := FuncPath(func(_ time.Duration, dir Direction) (time.Duration, bool) {
		if dir == Uplink {
			return 100 * time.Millisecond, false
		}
		return 20 * time.Millisecond, false
	})
	s, n, cl := buildNet(t, 0, asym)
	var offset time.Duration
	s.Go(func(p *Proc) {
		tr := &Transport{Net: n, Proc: p, Clock: cl}
		t1 := cl.Now()
		req := ntppkt.NewSNTPClient(ntppkt.Version4, ntptime.FromTime(t1))
		resp, t4, err := tr.Exchange("ref0", req)
		if err != nil {
			t.Errorf("exchange: %v", err)
			return
		}
		t1ts, t4ts := ntptime.FromTime(t1), ntptime.FromTime(t4)
		offset = (resp.Receive.Sub(t1ts) + resp.Transmit.Sub(t4ts)) / 2
	})
	s.Run()
	if d := offset - 40*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("offset = %v, want ~+40ms (asymmetry bias)", offset)
	}
}

func TestExchangeTimeoutOnLoss(t *testing.T) {
	lossy := FuncPath(func(time.Duration, Direction) (time.Duration, bool) { return 0, true })
	s, n, cl := buildNet(t, 0, lossy)
	n.Timeout = 3 * time.Second
	var errGot error
	var elapsed time.Duration
	s.Go(func(p *Proc) {
		tr := &Transport{Net: n, Proc: p, Clock: cl}
		start := p.Now()
		req := ntppkt.NewSNTPClient(ntppkt.Version4, ntptime.FromTime(cl.Now()))
		_, _, errGot = tr.Exchange("ref0", req)
		elapsed = p.Now() - start
	})
	s.Run()
	if errGot == nil {
		t.Fatal("lossy exchange succeeded")
	}
	if _, ok := errGot.(*ErrTimeout); !ok {
		t.Errorf("err type = %T", errGot)
	}
	if elapsed != 3*time.Second {
		t.Errorf("timeout elapsed %v, want 3s", elapsed)
	}
	if n.Lost != 1 || n.Sent != 1 {
		t.Errorf("counters sent=%d lost=%d", n.Sent, n.Lost)
	}
}

func TestPoolRandomAssignment(t *testing.T) {
	s := NewScheduler()
	truth := clock.NewTrue(epoch, s.Now)
	members := []*Server{
		NewServer("p0", truth, 2, 1),
		NewServer("p1", truth, 2, 2),
		NewServer("p2", truth, 2, 3),
	}
	pool := NewPool("pool.example", members, 99)
	n := NewNetwork(s)
	n.AddPool(pool)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		srv, _, err := n.lookup("pool.example")
		if err != nil {
			t.Fatal(err)
		}
		seen[srv.Name] = true
	}
	if len(seen) != 3 {
		t.Errorf("pool members seen = %v, want all 3", seen)
	}
}

func TestResolveUnknown(t *testing.T) {
	n := NewNetwork(NewScheduler())
	if _, _, err := n.lookup("nope"); err == nil {
		t.Error("unknown server resolved")
	}
}

func TestServerRespondEchoesOrigin(t *testing.T) {
	s := NewScheduler()
	truth := clock.NewTrue(epoch, s.Now)
	srv := NewServer("ref0", truth, 1, 1)
	tx := ntptime.FromTime(epoch.Add(time.Second))
	req := ntppkt.NewSNTPClient(ntppkt.Version4, tx)
	resp := new(ntppkt.Packet)
	srv.Respond(resp, req, epoch.Add(2*time.Second), epoch.Add(2*time.Second))
	if resp.Origin != tx {
		t.Error("origin not echoed")
	}
	if resp.Mode != ntppkt.ModeServer || resp.Stratum != 1 {
		t.Errorf("resp header = %v", resp)
	}
	if err := resp.ValidateServerReply(tx); err != nil {
		t.Errorf("self-validation failed: %v", err)
	}

	// A reused reply packet is overwritten whole: a packet with every
	// field set to something no reply carries comes out equal to a reply
	// built in a fresh one.
	reused := &ntppkt.Packet{
		Leap: ntppkt.LeapNotSync, Version: 1, Mode: ntppkt.ModeClient, Stratum: 15,
		Poll: 17, Precision: 3, RootDelay: 0xffffffff, RootDisp: 0xffffffff,
		RefID: [4]byte{'X', 'X', 'X', 'X'}, RefTime: ^ntptime.Timestamp(0), Origin: ^ntptime.Timestamp(0),
		Receive: ^ntptime.Timestamp(0), Transmit: ^ntptime.Timestamp(0),
		Ext: []ntppkt.ExtField{{}}, LegacyMAC: []byte{1, 2, 3, 4},
	}
	srv.Respond(reused, req, epoch.Add(2*time.Second), epoch.Add(2*time.Second))
	if !reflect.DeepEqual(reused, resp) {
		t.Errorf("reused reply packet keeps old fields:\n got %+v\nwant %+v", reused, resp)
	}
}

func TestPingRTTAndLoss(t *testing.T) {
	sym := FuncPath(func(time.Duration, Direction) (time.Duration, bool) {
		return 30 * time.Millisecond, false
	})
	s, n, cl := buildNet(t, 0, sym)
	var rtt time.Duration
	var lost bool
	s.Go(func(p *Proc) {
		tr := &Transport{Net: n, Proc: p, Clock: cl}
		rtt, lost = tr.Ping("ref0")
	})
	s.Run()
	if lost || rtt != 60*time.Millisecond {
		t.Errorf("ping rtt=%v lost=%v", rtt, lost)
	}
}

// Property: virtual time never decreases across an arbitrary schedule
// of events, and every event fires at or after its requested time
// (clamped to schedule time).
func TestQuickTimeMonotone(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fired []time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			s.at(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		prev := time.Duration(-1)
		for _, ts := range fired {
			if ts < prev {
				return false
			}
			prev = ts
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Every fires ceil exactly at start + k*interval while the
// callback returns true.
func TestEveryFiringTimes(t *testing.T) {
	s := NewScheduler()
	var at []time.Duration
	s.Every(3*time.Second, 7*time.Second, func() bool {
		at = append(at, s.Now())
		return len(at) < 5
	})
	s.Run()
	for i, ts := range at {
		want := 3*time.Second + time.Duration(i)*7*time.Second
		if ts != want {
			t.Errorf("firing %d at %v, want %v", i, ts, want)
		}
	}
}
