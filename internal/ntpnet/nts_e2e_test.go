package ntpnet

import (
	"crypto/tls"
	"crypto/x509"
	"net"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
	"mntp/internal/ntske"
	"mntp/internal/overload"
)

// startNTSStack brings up the full authenticated serving stack on
// loopback: a UDP NTP server verifying against a key ring, and an
// NTS-KE TLS server minting cookies from the same ring, advertising
// the UDP server's port.
func startNTSStack(t testing.TB, srv *Server) (ring *nts.KeyRing, keAddr string, clientTLS *tls.Config) {
	t.Helper()
	ring, err := nts.NewKeyRing(2)
	if err != nil {
		t.Fatalf("NewKeyRing: %v", err)
	}
	srv.NTS = ring
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	cert, certPEM, err := ntske.SelfSigned(time.Now(), "127.0.0.1")
	if err != nil {
		t.Fatalf("SelfSigned: %v", err)
	}
	ke := &ntske.Server{
		Ring:      ring,
		TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}},
		NTPHost:   "127.0.0.1",
		NTPPort:   addr.Port,
	}
	keBound, err := ke.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("KE Listen: %v", err)
	}
	t.Cleanup(func() { ke.Close() })

	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(certPEM) {
		t.Fatal("AppendCertsFromPEM failed")
	}
	return ring, keBound.String(), &tls.Config{RootCAs: pool}
}

// TestNTSEndToEnd is the acceptance path: NTS-KE over TLS against the
// real UDP server on loopback, a run of authenticated exchanges with
// cookie re-supply holding the jar above low water, a tampered
// request refused with NTS NAK, and client recovery — a ring rotated
// past its depth kills every held cookie, and the next exchange
// succeeds by re-running KE. CI runs this under -race.
func TestNTSEndToEnd(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.Workers = 2
	ring, keAddr, clientTLS := startNTSStack(t, srv)

	tr := &ntske.Transport{Inner: &Client{Timeout: 2 * time.Second}, TLSConfig: clientTLS}
	clk := clock.System{}

	const exchanges = 10
	const lowWater = nts.DefaultJarCapacity / 2
	for i := 0; i < exchanges; i++ {
		sample, err := exchange.Measure(clk, tr, keAddr, ntppkt.Version4, false)
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if sample.Stratum != 2 {
			t.Fatalf("exchange %d: stratum %d, want 2", i, sample.Stratum)
		}
		if jar := tr.CookieCount(keAddr); jar < lowWater {
			t.Fatalf("exchange %d: jar at %d, below low water %d — re-supply is not keeping up", i, jar, lowWater)
		}
	}
	snap := waitSnapshot(srv, func(s *Snapshot) bool { return s.Served >= exchanges })
	if snap.NTSServed < exchanges {
		t.Fatalf("NTSServed = %d, want >= %d", snap.NTSServed, exchanges)
	}
	if snap.Served != snap.NTSServed {
		t.Fatalf("Served=%d NTSServed=%d: unauthenticated replies on an all-NTS run", snap.Served, snap.NTSServed)
	}

	// Tampered extension field: flip one bit of the unique identifier
	// after protection. The server must answer NTS NAK, never time.
	sess, err := ntske.KeyExchange(keAddr, clientTLS, 2*time.Second)
	if err != nil {
		t.Fatalf("KeyExchange: %v", err)
	}
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.FromTime(time.Now()))
	if _, err := sess.ProtectRequest(req); err != nil {
		t.Fatalf("ProtectRequest: %v", err)
	}
	wire := req.Encode(nil)
	wire[ntppkt.HeaderLen+ntppkt.ExtHeaderLen] ^= 0x01

	ntpAddr, err := net.ResolveUDPAddr("udp", sess.NTPServer)
	if err != nil {
		t.Fatalf("resolve %s: %v", sess.NTPServer, err)
	}
	conn, err := net.DialUDP("udp", nil, ntpAddr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire); err != nil {
		t.Fatalf("send tampered: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no reply to tampered request — NAK must be explicit: %v", err)
	}
	var nak ntppkt.Packet
	if err := nak.DecodeInto(buf[:n]); err != nil {
		t.Fatalf("decode NAK: %v", err)
	}
	if code, kod := nak.KissCode(); !kod || code != "NTSN" {
		t.Fatalf("tampered request answered with stratum=%d code=%q, want NTSN kiss", nak.Stratum, code)
	}
	if got := waitSnapshot(srv, func(s *Snapshot) bool { return s.NTSNaks >= 1 }).NTSNaks; got < 1 {
		t.Fatalf("NTSNaks = %d, want >= 1", got)
	}

	// Recovery: rotate the ring past its depth so every cookie the
	// transport holds is dead. The next exchange absorbs the NAK by
	// re-running KE inside the same call.
	for i := 0; i < 3; i++ {
		if err := ring.Rotate(); err != nil {
			t.Fatalf("Rotate: %v", err)
		}
	}
	sample, err := exchange.Measure(clk, tr, keAddr, ntppkt.Version4, false)
	if err != nil {
		t.Fatalf("exchange after rotation: %v", err)
	}
	if sample.Stratum != 2 {
		t.Fatalf("post-recovery stratum = %d, want 2", sample.Stratum)
	}
	if jar := tr.CookieCount(keAddr); jar < lowWater {
		t.Fatalf("post-recovery jar = %d, below low water %d", jar, lowWater)
	}
}

// TestNTSDegradedBypassesShed pins the shed-priority contract: with
// the server Degraded and every new plain flow losing the shed coin
// toss (ShedMin 1), authenticated requests are still answered with
// time — a valid authenticator is the one admission signal a spoofed
// source cannot forge — so their answered rate strictly exceeds plain
// traffic's.
func TestNTSDegradedBypassesShed(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.Workers = 2
	srv.RateLimit = 100000
	srv.RateWindow = time.Minute
	srv.WatchdogInterval = -1 // state moves on Observe only
	srv.Overload = degradedConfig()
	_, keAddr, clientTLS := startNTSStack(t, srv)

	sess, err := ntske.KeyExchange(keAddr, clientTLS, 2*time.Second)
	if err != nil {
		t.Fatalf("KeyExchange: %v", err)
	}
	ntpAddr, err := net.ResolveUDPAddr("udp", sess.NTPServer)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}

	// The NTS client and the plain flood must come from different
	// source IPs, or the flood would make the NTS flow "established".
	ntsConn, err := net.DialUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 3)}, ntpAddr)
	if err != nil {
		t.Skipf("cannot bind 127.0.0.3 (needed for a distinct NTS source): %v", err)
	}
	defer ntsConn.Close()
	plainConn, err := net.DialUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 2)}, ntpAddr)
	if err != nil {
		t.Skipf("cannot bind 127.0.0.2 (needed for a distinct plain source): %v", err)
	}
	defer plainConn.Close()
	drivingConn, err := net.DialUDP("udp", nil, ntpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer drivingConn.Close()

	// Drive plain traffic until the sampled sojourn takes the server
	// Degraded.
	deadline := time.Now().Add(3 * time.Second)
	for srv.Health() != overload.Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached Degraded (health %v)", srv.Health())
		}
		sendRequest(t, drivingConn)
		readReply(t, drivingConn, 200*time.Millisecond)
	}

	// Plain spoofed traffic (new flow): shed with RATE, answered rate 0.
	plainAnswered := 0
	const attempts = 8
	for i := 0; i < attempts; i++ {
		sendRequest(t, plainConn)
		p, ok := readReply(t, plainConn, time.Second)
		if !ok {
			t.Fatalf("plain request %d: no reply — sheds must be explicit", i)
		}
		if _, kod := p.KissCode(); !kod {
			plainAnswered++
		}
	}

	// Authenticated traffic from an equally new flow: answered.
	ntsAnswered := 0
	for i := 0; i < attempts; i++ {
		req := ntppkt.NewClient(ntppkt.Version4, ntptime.FromTime(time.Now()))
		st, err := sess.ProtectRequest(req)
		if err != nil {
			t.Fatalf("ProtectRequest %d: %v", i, err)
		}
		if _, err := ntsConn.Write(req.Encode(nil)); err != nil {
			t.Fatalf("send NTS %d: %v", i, err)
		}
		ntsConn.SetReadDeadline(time.Now().Add(time.Second))
		buf := make([]byte, 2048)
		n, err := ntsConn.Read(buf)
		if err != nil {
			t.Fatalf("NTS request %d: no reply while Degraded: %v", i, err)
		}
		var p ntppkt.Packet
		if err := p.DecodeInto(buf[:n]); err != nil {
			t.Fatalf("decode NTS reply %d: %v", i, err)
		}
		if err := sess.VerifyReply(&p, st); err != nil {
			t.Fatalf("verify NTS reply %d: %v", i, err)
		}
		if _, kod := p.KissCode(); !kod && p.Stratum == 2 {
			ntsAnswered++
		}
	}

	if ntsAnswered <= plainAnswered {
		t.Fatalf("authenticated answered %d/%d, plain answered %d/%d: NTS must strictly win while Degraded",
			ntsAnswered, attempts, plainAnswered, attempts)
	}
	if ntsAnswered != attempts {
		t.Errorf("authenticated answered %d/%d, want all: the bypass must be deterministic", ntsAnswered, attempts)
	}
	if plainAnswered != 0 {
		t.Errorf("plain new-flow answered %d/%d, want 0 with ShedMin 1", plainAnswered, attempts)
	}

	// The crypto term must be visible in the controller's stats once
	// authenticated traffic has been sampled.
	if stats := srv.OverloadStats(); stats.Sojourn <= 0 {
		t.Errorf("overload stats show no sojourn signal: %+v", stats)
	}
}
