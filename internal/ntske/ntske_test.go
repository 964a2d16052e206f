package ntske

import (
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
)

// testKE starts a loopback KE server over a fresh ring and returns
// its address plus a client TLS config trusting its self-signed cert.
func testKE(t *testing.T, ring *nts.KeyRing, ntpPort int) (addr string, clientCfg *tls.Config) {
	t.Helper()
	cert, certPEM, err := SelfSigned(time.Now(), "127.0.0.1")
	if err != nil {
		t.Fatalf("SelfSigned: %v", err)
	}
	srv := &Server{
		Ring:      ring,
		TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}},
		NTPPort:   ntpPort,
	}
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(certPEM) {
		t.Fatal("AppendCertsFromPEM failed")
	}
	return bound.String(), &tls.Config{RootCAs: pool}
}

func TestKeyExchangeLoopback(t *testing.T) {
	ring, err := nts.NewKeyRing(2)
	if err != nil {
		t.Fatalf("NewKeyRing: %v", err)
	}
	addr, cfg := testKE(t, ring, 11123)

	sess, err := KeyExchange(addr, cfg, 5*time.Second)
	if err != nil {
		t.Fatalf("KeyExchange: %v", err)
	}
	if sess.AEAD != nts.AEADAESSIVCMAC256 {
		t.Fatalf("AEAD = %d, want %d", sess.AEAD, nts.AEADAESSIVCMAC256)
	}
	if len(sess.C2S) != nts.SIVKeyLen || len(sess.S2C) != nts.SIVKeyLen {
		t.Fatalf("key lengths %d/%d, want %d", len(sess.C2S), len(sess.S2C), nts.SIVKeyLen)
	}
	if bytes.Equal(sess.C2S, sess.S2C) {
		t.Fatal("c2s and s2c keys are identical")
	}
	if got := sess.CookieCount(); got != nts.DefaultJarCapacity {
		t.Fatalf("cookie count = %d, want %d", got, nts.DefaultJarCapacity)
	}
	if sess.NTPServer != "127.0.0.1:11123" {
		t.Fatalf("NTPServer = %q, want 127.0.0.1:11123", sess.NTPServer)
	}

	// The cookies the client holds must verify against the server's
	// ring and carry the very keys the TLS exporter produced.
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(7<<32))
	if _, err := sess.ProtectRequest(req); err != nil {
		t.Fatalf("ProtectRequest: %v", err)
	}
	p := new(ntppkt.Packet)
	err = p.DecodeInto(req.Encode(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	sreq, err := nts.VerifyRequest(ring, p)
	if err != nil {
		t.Fatalf("VerifyRequest: %v", err)
	}
	if !bytes.Equal(sreq.C2S, sess.C2S) || !bytes.Equal(sreq.S2C, sess.S2C) {
		t.Fatal("cookie keys do not match exported keys")
	}
}

func TestKeyExchangeUntrustedCert(t *testing.T) {
	ring, _ := nts.NewKeyRing(1)
	addr, _ := testKE(t, ring, 123)
	if _, err := KeyExchange(addr, &tls.Config{RootCAs: x509.NewCertPool()}, 5*time.Second); err == nil {
		t.Fatal("KeyExchange succeeded against an untrusted certificate")
	}
}

// fakeNTPServer answers protected requests with the server-side nts
// path, standing in for the UDP server so the transport decorator can
// be tested without sockets.
func fakeNTPServer(ring *nts.KeyRing) exchange.Transport {
	return exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		wire := req.Encode(nil)
		p := new(ntppkt.Packet)
		err := p.DecodeInto(wire)
		if err != nil {
			return nil, time.Time{}, err
		}
		resp := &ntppkt.Packet{
			Version:  ntppkt.Version4,
			Mode:     ntppkt.ModeServer,
			Origin:   p.Transmit,
			Receive:  p.Transmit + 1,
			Transmit: p.Transmit + 2,
		}
		sreq, err := nts.VerifyRequest(ring, p)
		if err != nil {
			resp.Stratum = ntppkt.StratumKoD
			resp.RefID = ntppkt.KissNTSN
			if uid, _ := p.FindExt(ntppkt.ExtUniqueIdentifier); uid != nil {
				nts.ProtectNAK(uid.Value, resp)
			}
			return resp, time.Now(), nil
		}
		resp.Stratum = 2
		if err := nts.ProtectResponse(ring, sreq, resp); err != nil {
			return nil, time.Time{}, err
		}
		return resp, time.Now(), nil
	})
}

// TestTransportRecoversFromNAK drives the decorator through normal
// exchanges, then rotates the server's ring past its depth so every
// held cookie dies. The next Exchange must absorb the NTS NAK by
// re-running KE within the same call.
func TestTransportRecoversFromNAK(t *testing.T) {
	ring, err := nts.NewKeyRing(1)
	if err != nil {
		t.Fatalf("NewKeyRing: %v", err)
	}
	addr, cfg := testKE(t, ring, 123)
	tr := &Transport{Inner: fakeNTPServer(ring), TLSConfig: cfg}

	for i := 0; i < 3; i++ {
		req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(uint64(i+1)<<32))
		resp, _, err := tr.Exchange(addr, req)
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if resp.Stratum != 2 {
			t.Fatalf("exchange %d: stratum %d", i, resp.Stratum)
		}
	}
	if got := tr.CookieCount(addr); got != nts.DefaultJarCapacity {
		t.Fatalf("jar = %d before rotation, want %d", got, nts.DefaultJarCapacity)
	}

	// Rotate past ring depth: all outstanding cookies now NAK.
	for i := 0; i < 2; i++ {
		if err := ring.Rotate(); err != nil {
			t.Fatalf("Rotate: %v", err)
		}
	}
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(9<<32))
	resp, _, err := tr.Exchange(addr, req)
	if err != nil {
		t.Fatalf("exchange after rotation: %v", err)
	}
	if resp.Stratum != 2 {
		t.Fatalf("stratum after recovery = %d, want 2", resp.Stratum)
	}
	if got := tr.CookieCount(addr); got == 0 {
		t.Fatal("no fresh session after NAK recovery")
	}
}

// TestTransportNeverSeesRecycledRequest: exchange.Measure recycles its
// request packet once Exchange returns, and this decorator rewrites the
// request's extension fields on every attempt. Four goroutines measure
// through one Transport; the NTP server underneath requires each
// protected request to stay as it was for as long as its call lasts.
// Under -race, a packet handed to a second exchange too early is also a
// reported data race.
func TestTransportNeverSeesRecycledRequest(t *testing.T) {
	ring, err := nts.NewKeyRing(1)
	if err != nil {
		t.Fatalf("NewKeyRing: %v", err)
	}
	addr, cfg := testKE(t, ring, 123)
	server := fakeNTPServer(ring)
	tr := &Transport{TLSConfig: cfg, Inner: exchange.TransportFunc(
		func(name string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
			before := req.Encode(nil)
			time.Sleep(50 * time.Microsecond)
			resp, t4, err := server.Exchange(name, req)
			if !bytes.Equal(before, req.Encode(nil)) {
				t.Error("protected request changed during its exchange")
			}
			return resp, t4, err
		})}
	var wg sync.WaitGroup
	var ok atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Goroutines sharing one session can race each other to
				// an empty jar; what matters is that most get through.
				if _, err := exchange.Measure(clock.System{}, tr, addr, ntppkt.Version4, false); err == nil {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() < 100 {
		t.Errorf("%d of 200 protected measurements succeeded", ok.Load())
	}
}
