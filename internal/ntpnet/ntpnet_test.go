package ntpnet

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/ntske"
	"mntp/internal/overload"
	"mntp/internal/sntp"
)

func startServer(t *testing.T, clk clock.Clock) (*Server, string) {
	t.Helper()
	srv := NewServer(clk, 2)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

// finalSnapshot closes srv and reads its counters. A counter is bumped
// after the reply is written (served means written), so a client that
// already holds the reply may still read the old value from a live
// server; Close waits for every worker, after which the counts are
// final.
func finalSnapshot(srv *Server) *Snapshot {
	srv.Close()
	return srv.Snapshot()
}

// waitSnapshot is finalSnapshot for a test that is not done with srv:
// it polls (for at most a second) until ok holds and returns the last
// snapshot read, for the caller to assert on.
func waitSnapshot(srv *Server, ok func(*Snapshot) bool) *Snapshot {
	snap := srv.Snapshot()
	for deadline := time.Now().Add(time.Second); !ok(snap) && time.Now().Before(deadline); snap = srv.Snapshot() {
		time.Sleep(time.Millisecond)
	}
	return snap
}

func TestLoopbackExchange(t *testing.T) {
	srv, addr := startServer(t, clock.System{})
	c := &Client{Timeout: 2 * time.Second}
	s, err := exchange.Measure(clock.System{}, c, addr, ntppkt.Version4, true)
	if err != nil {
		t.Fatal(err)
	}
	// Loopback to a same-clock server: offset within a few ms, delay
	// sub-second.
	if s.Offset < -5*time.Millisecond || s.Offset > 5*time.Millisecond {
		t.Errorf("loopback offset = %v", s.Offset)
	}
	if s.Delay < 0 || s.Delay > time.Second {
		t.Errorf("loopback delay = %v", s.Delay)
	}
	if got := finalSnapshot(srv).Served; got != 1 {
		t.Errorf("served = %d", got)
	}
}

func TestOffsetClockServerMeasured(t *testing.T) {
	// A server clock 750 ms ahead must be measured as ~+750 ms.
	ahead := &clock.Fixed{Base: clock.System{}, Error: 750 * time.Millisecond}
	_, addr := startServer(t, ahead)
	c := &Client{Timeout: 2 * time.Second}
	s, err := exchange.Measure(clock.System{}, c, addr, ntppkt.Version4, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Offset - 750*time.Millisecond; d < -10*time.Millisecond || d > 10*time.Millisecond {
		t.Errorf("offset = %v, want ~750ms", s.Offset)
	}
}

func TestSNTPClientOverUDP(t *testing.T) {
	_, addr := startServer(t, clock.System{})
	cl := sntp.New(clock.System{}, &Client{Timeout: 2 * time.Second}, sntp.WallSleeper{},
		sntp.Config{Server: addr})
	s, err := cl.Query()
	if err != nil {
		t.Fatal(err)
	}
	if s.Offset < -5*time.Millisecond || s.Offset > 5*time.Millisecond {
		t.Errorf("offset = %v", s.Offset)
	}
}

func TestTimeoutAgainstDeadPort(t *testing.T) {
	c := &Client{Timeout: 200 * time.Millisecond}
	req := ntppkt.NewSNTPClient(ntppkt.Version4, 0)
	_, _, err := c.Exchange("127.0.0.1:9", req) // discard port, nothing listening
	if err == nil {
		t.Fatal("expected error")
	}
	// Either a timeout or an ICMP-driven connection refused is
	// acceptable; both surface as errors.
	if !errors.Is(err, errTimeout) && err == nil {
		t.Errorf("err = %v", err)
	}
}

func TestServerIgnoresGarbage(t *testing.T) {
	srv, addr := startServer(t, clock.System{})
	// Send garbage, then a valid request: the server must survive and
	// answer the valid one.
	c := &Client{Timeout: 2 * time.Second}
	d, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := exchange.Measure(clock.System{}, c, addr, ntppkt.Version4, true); err != nil {
		t.Fatalf("valid request after garbage failed: %v", err)
	}
	if got := finalSnapshot(srv).Served; got != 1 {
		t.Errorf("served = %d, want 1 (garbage dropped)", got)
	}
}

func TestServerIgnoresNonClientModes(t *testing.T) {
	srv, addr := startServer(t, clock.System{})
	req := ntppkt.NewSNTPClient(ntppkt.Version4, 0)
	req.Mode = ntppkt.ModeServer // not a client request
	c := &Client{Timeout: 300 * time.Millisecond}
	if _, _, err := c.Exchange(addr, req); !errors.Is(err, errTimeout) {
		t.Errorf("err = %v, want timeout (request ignored)", err)
	}
	if snap := finalSnapshot(srv); snap.Served != 0 || snap.Dropped != 1 {
		t.Errorf("served = %d, dropped = %d, want 0 and 1", snap.Served, snap.Dropped)
	}
}

func TestCloseIdempotentAndUnblocks(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	// Second close on a closed server: no panic, error acceptable.
	srv.Close()
}

func TestRateLimitSendsKoD(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.RateLimit = 3
	srv.RateWindow = time.Minute
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &Client{Timeout: 2 * time.Second}
	for i := 0; i < 3; i++ {
		if _, err := exchange.Measure(clock.System{}, c, addr.String(), ntppkt.Version4, true); err != nil {
			t.Fatalf("request %d within limit failed: %v", i, err)
		}
	}
	// Fourth request in the window: RATE kiss-of-death.
	_, err = exchange.Measure(clock.System{}, c, addr.String(), ntppkt.Version4, true)
	if !errors.Is(err, ntppkt.ErrKissOfDeath) {
		t.Fatalf("err = %v, want kiss-of-death", err)
	}
	if got := finalSnapshot(srv).Limited; got != 1 {
		t.Errorf("rate-limited = %d", got)
	}
}

func TestSNTPClientDoesNotRetryKoD(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.RateLimit = 1
	srv.RateWindow = time.Minute
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := sntp.New(clock.System{}, &Client{Timeout: 2 * time.Second}, sntp.WallSleeper{},
		sntp.Config{Server: addr.String(), Retries: 5, RetryWait: time.Millisecond})
	if _, err := cl.Query(); err != nil {
		t.Fatalf("first query: %v", err)
	}
	if _, err := cl.Query(); !errors.Is(err, ntppkt.ErrKissOfDeath) {
		t.Fatalf("second query err = %v, want KoD", err)
	}
	// Retries=5 but KoD must abort: exactly 1 served + limited count,
	// not 6 more requests hammering the server.
	if snap := finalSnapshot(srv); snap.Served+snap.Limited > 3 {
		t.Errorf("server saw %d requests; client retried into the rate limit", snap.Served+snap.Limited)
	}
}

// fakeServer runs a scripted one-shot UDP endpoint: it reads one
// request and hands it to reply to send whatever datagrams it wants.
func fakeServer(t *testing.T, reply func(pc *net.UDPConn, peer *net.UDPAddr, req ntppkt.Packet)) string {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, 512)
		n, peer, err := pc.ReadFromUDP(buf)
		if err != nil {
			return
		}
		var req ntppkt.Packet
		if err := req.DecodeInto(buf[:n]); err != nil {
			return
		}
		reply(pc, peer, req)
	}()
	return pc.LocalAddr().String()
}

func TestExchangeSkipsSpoofedAndStrayReplies(t *testing.T) {
	// The server sends two decodable non-answers before the genuine
	// reply: a mode-1 packet echoing the origin, and a mode-4 reply
	// whose origin does not echo the request (spoofed / someone
	// else's). The client's receive loop must skip both and accept
	// only the genuine reply; treating either as the answer fails the
	// whole exchange with ErrBogusOrigin or ErrBadMode.
	addr := fakeServer(t, func(pc *net.UDPConn, peer *net.UDPAddr, req ntppkt.Packet) {
		now := time.Now()
		stray := ntppkt.Packet{
			Leap: ntppkt.LeapNone, Version: req.Version, Mode: 1, // symmetric active
			Stratum: 2, Origin: req.Transmit,
			Receive: ntptime.FromTime(now), Transmit: ntptime.FromTime(now),
		}
		pc.WriteToUDP(stray.Encode(nil), peer)
		spoof := ntppkt.Packet{
			Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
			Stratum: 1, Origin: ntptime.FromTime(now.Add(time.Hour)), // wrong echo
			Receive:  ntptime.FromTime(now.Add(time.Hour)),
			Transmit: ntptime.FromTime(now.Add(time.Hour)),
		}
		pc.WriteToUDP(spoof.Encode(nil), peer)
		genuine := ntppkt.Packet{
			Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
			Stratum: 2, Origin: req.Transmit,
			Receive: ntptime.FromTime(now), Transmit: ntptime.FromTime(now),
		}
		pc.WriteToUDP(genuine.Encode(nil), peer)
	})

	c := &Client{Timeout: 2 * time.Second}
	s, err := exchange.Measure(clock.System{}, c, addr, ntppkt.Version4, true)
	if err != nil {
		t.Fatalf("exchange failed on stray traffic: %v", err)
	}
	if s.Offset < -time.Second || s.Offset > time.Second {
		t.Errorf("offset = %v: accepted the spoofed reply?", s.Offset)
	}
}

// manualClock is a thread-safe settable clock (the serve pool reads
// it concurrently with the test advancing it).
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (m *manualClock) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

func (m *manualClock) Advance(d time.Duration) {
	m.mu.Lock()
	m.t = m.t.Add(d)
	m.mu.Unlock()
}

func TestRateLimiterFollowsServerClock(t *testing.T) {
	// The limiter must run on the server's clock, like every protocol
	// timestamp: when the clock jumps past the window, the bucket is
	// expired even though almost no wall time passed. A limiter
	// stamped with time.Now() keeps limiting here.
	mc := &manualClock{t: time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)}
	srv := NewServer(mc, 2)
	srv.RateLimit = 1
	srv.RateWindow = time.Minute
	srv.Workers = 1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &Client{Timeout: 2 * time.Second}
	if _, err := exchange.Measure(clock.System{}, c, addr.String(), ntppkt.Version4, true); err != nil {
		t.Fatalf("first request: %v", err)
	}
	if _, err := exchange.Measure(clock.System{}, c, addr.String(), ntppkt.Version4, true); !errors.Is(err, ntppkt.ErrKissOfDeath) {
		t.Fatalf("second request in window: err = %v, want KoD", err)
	}
	mc.Advance(2 * time.Minute) // server clock leaves the window
	if _, err := exchange.Measure(clock.System{}, c, addr.String(), ntppkt.Version4, true); err != nil {
		t.Fatalf("request after server-clock window expiry: %v (limiter not on server clock?)", err)
	}
}

func TestRateTableBoundedUnderManyClients(t *testing.T) {
	const maxEntries = 1024
	rl := newRateLimiter(10, time.Minute, maxEntries)
	now := time.Unix(1479081600, 0)
	var key addrKey
	for i := 0; i < 10000; i++ {
		key[12] = byte(i >> 16)
		key[13] = byte(i >> 8)
		key[14] = byte(i)
		rl.over(key, now.Add(time.Duration(i)*time.Millisecond))
		if s := rl.size(); s > maxEntries {
			t.Fatalf("table grew to %d entries (cap %d) after %d clients", s, maxEntries, i+1)
		}
	}
	if s := rl.size(); s != maxEntries {
		t.Errorf("table size = %d, want %d (full)", s, maxEntries)
	}
	// A new client past the window expires every stale bucket at once.
	key[11] = 0xfe
	rl.over(key, now.Add(time.Hour))
	if s := rl.size(); s > 2 {
		t.Errorf("expired buckets survived eviction: size = %d", s)
	}
}

func TestServePoolConcurrentClients(t *testing.T) {
	// Many concurrent clients against a multi-worker server: every
	// exchange must complete with its own (sane) reply — no lost or
	// misattributed responses.
	srv := NewServer(clock.System{}, 2)
	srv.Workers = 8
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, perClient = 24, 20
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			c := &Client{Timeout: 5 * time.Second}
			for j := 0; j < perClient; j++ {
				s, err := exchange.Measure(clock.System{}, c, addr.String(), ntppkt.Version4, true)
				if err != nil {
					errs <- err
					return
				}
				if s.Offset < -time.Second || s.Offset > time.Second {
					errs <- fmt.Errorf("misattributed reply: offset %v", s.Offset)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := finalSnapshot(srv).Served; got != clients*perClient {
		t.Errorf("served = %d, want %d", got, clients*perClient)
	}
}

func TestServerMetricsCounters(t *testing.T) {
	srv, addr := startServer(t, clock.System{})
	d, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Write(make([]byte, 10)) // malformed (runt)
	nonClient := ntppkt.Packet{Version: ntppkt.Version4, Mode: ntppkt.ModeServer}
	d.Write(nonClient.Encode(nil)) // dropped (not mode 3)

	c := &Client{Timeout: 2 * time.Second}
	if _, err := exchange.Measure(clock.System{}, c, addr, ntppkt.Version4, true); err != nil {
		t.Fatal(err)
	}
	// Both stray datagrams left the socket queue before the request did.
	snap := finalSnapshot(srv)
	if snap.Malformed != 1 || snap.Dropped != 1 || snap.Served != 1 {
		t.Fatalf("snapshot = %+v, want malformed=1 dropped=1 served=1", snap)
	}
	if got := snap.Latency.Count(); got != 1 {
		t.Errorf("latency histogram total = %d, want 1", got)
	}
	if q, ok := snap.LatencyQuantile(0.99); !ok || q <= 0 {
		t.Errorf("LatencyQuantile = %v, %v", q, ok)
	}
	if s := snap.String(); s == "" {
		t.Error("empty snapshot string")
	}
}

// BenchmarkServePool is the serve path in-process, one sub-benchmark
// per configuration the repo benchmark's serve_* workloads run, so a
// CPU profile of the server needs no patched main:
//
//	go test -run '^$' -bench 'ServePool/nts' -cpu 1 -cpuprofile cpu.out ./internal/ntpnet
//
// The allocations reported include the client's half of each exchange.
func BenchmarkServePool(b *testing.B) {
	for _, bc := range []struct {
		name      string
		configure func(*Server)
		nts       bool
	}{
		{name: "plain", configure: func(*Server) {}},
		{name: "guarded", configure: func(s *Server) {
			s.Overload = &overload.Config{}
			s.RateLimit, s.RateWindow = 1<<30, time.Minute // a limit nobody reaches
		}},
		{name: "nts", configure: func(*Server) {}, nts: true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv := NewServer(clock.System{}, 2)
			bc.configure(srv)
			var target string
			var clientTLS *tls.Config
			if bc.nts {
				_, target, clientTLS = startNTSStack(b, srv)
			} else {
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				target = addr.String()
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				var c exchange.Transport = &Client{Timeout: 5 * time.Second}
				if bc.nts {
					c = &ntske.Transport{Inner: c, TLSConfig: clientTLS}
				}
				for pb.Next() {
					if _, err := exchange.Measure(clock.System{}, c, target, ntppkt.Version4, true); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
