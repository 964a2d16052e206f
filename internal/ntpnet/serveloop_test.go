package ntpnet

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/nts"
	"mntp/internal/overload"
)

// idleServer listens as srv is configured, then retires the worker
// pool the way Shutdown does (an expired read deadline) and lifts the
// deadline again: what is left is the shard Listen built, with the
// test goroutine as its only reader. It returns the worker that reader
// serves with and pump, which sends req from a loopback client, runs
// it through serveOne — read, handle, write — and collects the reply.
func idleServer(t testing.TB, srv *Server) (w *worker, pump func(req []byte)) {
	t.Helper()
	srv.WatchdogInterval = -1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sh := srv.shards[0]
	sh.conn.SetReadDeadline(time.Now())
	srv.wg.Wait()
	sh.conn.SetReadDeadline(time.Time{})
	client, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	client.SetReadDeadline(time.Now().Add(time.Minute))
	w, reply := new(worker), make([]byte, 2048)
	return w, func(req []byte) {
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		if err := srv.serveOne(sh, w); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Read(reply); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeLoopDoesNotAllocate: one datagram through the socket read,
// handle and the socket write allocates nothing — at the socket as in
// decide (TestDecideAllocations), NTS included (see ntsAllocs). Every
// configuration is measured off the tick and on
// it (the worker's counter is parked so that every datagram, or none,
// is its one in eight).
func TestServeLoopDoesNotAllocate(t *testing.T) {
	ring, err := nts.NewKeyRing(2)
	if err != nil {
		t.Fatal(err)
	}
	protected, _ := ntsRequest(t, ring)
	for _, tc := range []struct {
		name      string
		configure func(*Server)
		req       []byte
		want      float64
	}{
		{"defaults", func(*Server) {}, plainRequest(4, 3), 0},
		{"overload and rate limit", func(s *Server) {
			s.Overload = &overload.Config{}
			s.RateLimit, s.RateWindow = 1<<30, time.Minute
		}, plainRequest(4, 3), 0},
		{"nts", func(s *Server) { s.NTS = ring }, protected, ntsAllocs()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(clock.System{}, 2)
			tc.configure(srv)
			w, pump := idleServer(t, srv)
			if srv.ctrl != nil && rxTimestampsAvailable && !srv.shards[0].rxts {
				t.Fatal("kernel receive stamps are off: the control-message path would go unmeasured")
			}
			for _, tick := range []uint{0, sojournSampleMask} {
				exchange := func() {
					w.tick = tick
					pump(tc.req)
				}
				exchange() // the first request sizes the buffers
				if got := testing.AllocsPerRun(200, exchange); got > tc.want {
					t.Errorf("tick counter at %d: %v allocations per datagram, want <= %v", tick, got, tc.want)
				}
			}
			// Per pass: the sizing request, AllocsPerRun's own warm-up, 200 runs.
			if got := srv.Snapshot().Served; got != 2*202 {
				t.Errorf("served = %d, want all %d datagrams", got, 2*202)
			}
		})
	}
}

// TestMeasurementRidesTheTick: handle decides first whether a datagram
// is its worker's sample, and only then does anything measure. With no
// controller no datagram is ever timed — an NTS request is served with
// crypto == 0 — and with one, exactly one in eight is, and the AEAD
// time of those reaches the controller.
func TestMeasurementRidesTheTick(t *testing.T) {
	ring, err := nts.NewKeyRing(2)
	if err != nil {
		t.Fatal(err)
	}
	protected, _ := ntsRequest(t, ring)
	for _, tc := range []struct {
		name      string
		overload  *overload.Config
		wantTimed int
	}{
		{"no controller", nil, 0},
		{"controller", &overload.Config{}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(clock.System{}, 2)
			srv.NTS, srv.Overload = ring, tc.overload
			var w *worker
			timed := 0
			srv.FaultHook = func(int) { // runs inside decide
				if w.timed {
					timed++
				}
			}
			var pump func([]byte)
			w, pump = idleServer(t, srv)
			for i := 0; i < 32; i++ {
				pump(protected)
			}
			if timed != tc.wantTimed {
				t.Errorf("%d of 32 datagrams were timed, want %d", timed, tc.wantTimed)
			}
			if got := srv.Snapshot(); got.NTSServed != 32 || got.Latency.Count() != 32 {
				t.Errorf("nts-served = %d, latency count = %d, want 32 and 32: every datagram is served and recorded, timed or not",
					got.NTSServed, got.Latency.Count())
			}
			stats := srv.OverloadStats()
			if (stats.CryptoCost > 0) != (tc.wantTimed > 0) {
				t.Errorf("controller's crypto cost = %v with %d timed datagrams", stats.CryptoCost, tc.wantTimed)
			}
			// The 32nd datagram was a tick where there is one; what handle
			// left in the worker is what decide sees.
			v := srv.decide(0, protected, srcA, w)
			if v.outcome != served || (v.crypto > 0) != (tc.wantTimed > 0) {
				t.Errorf("outcome %d, crypto %v: want served, and AEAD time exactly when a controller consumes it", v.outcome, v.crypto)
			}
		})
	}
}

// TestDualStackSourceKey: moving the socket calls to netip.AddrPort
// must not split a client in two. An IPv4 client is answered through a
// dual-stack listener (where the kernel reports it as ::ffff:a.b.c.d),
// and the source image decide receives maps to the rate-limit key the
// plain IPv4 form maps to — one budget, whichever family it arrived
// over.
func TestDualStackSourceKey(t *testing.T) {
	var w worker
	v4 := netip.MustParseAddr("127.66.0.1")
	mapped := netip.MustParseAddr("::ffff:127.66.0.1")
	want := keyFromIP(net.IPv4(127, 66, 0, 1))
	for _, a := range []netip.Addr{v4, mapped} {
		src := w.source(a)
		if len(src) != net.IPv4len {
			t.Errorf("%v: source image is %d bytes, want the 4-byte form", a, len(src))
		}
		if got := keyFromIP(src); got != want {
			t.Errorf("%v: rate-limit key %x, want %x", a, got, want)
		}
	}
	v6 := netip.MustParseAddr("2001:db8::1")
	if got, want := keyFromIP(w.source(v6)), addrKey(v6.As16()); got != want {
		t.Errorf("%v: rate-limit key %x, want %x", v6, got, want)
	}

	srv := NewServer(clock.System{}, 2)
	srv.RateLimit, srv.RateWindow = 1, time.Minute
	addr, err := srv.Listen("[::]:0")
	if err != nil {
		t.Skipf("no dual-stack listener here: %v", err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp4", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: addr.Port})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sendRequest(t, conn)
	p, ok := readReply(t, conn, 2*time.Second)
	if !ok {
		t.Skip("the [::] listener does not receive IPv4 here (IPV6_V6ONLY)")
	}
	if _, kod := p.KissCode(); kod {
		t.Fatal("first request answered with a kiss")
	}
	// The second request is over the limit of 1: the mapped source the
	// dual-stack socket reports found the bucket the first one made,
	// and the RATE kiss found its way back to the IPv4 client.
	sendRequest(t, conn)
	if p, ok = readReply(t, conn, 2*time.Second); !ok {
		t.Fatal("no reply to the second request")
	}
	if code, kod := p.KissCode(); !kod || code != "RATE" {
		t.Errorf("second request: kiss=%v code=%q, want RATE", kod, code)
	}
	if !srv.limiter.Load().known(keyFromIP(net.IPv4(127, 0, 0, 1)), time.Now()) {
		t.Error("the client's bucket is not under its IPv4 key")
	}
}
