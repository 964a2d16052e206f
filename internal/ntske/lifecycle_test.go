package ntske

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
)

// peekCert fetches the certificate a live KE server presents, without
// completing a KE exchange: one TLS handshake, no records.
func peekCert(t *testing.T, addr string) *x509.Certificate {
	t.Helper()
	conn, err := tls.Dial("tcp", addr, &tls.Config{
		InsecureSkipVerify: true,
		NextProtos:         []string{alpn},
	})
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer conn.Close()
	certs := conn.ConnectionState().PeerCertificates
	if len(certs) == 0 {
		t.Fatal("no peer certificate")
	}
	return certs[0]
}

// TestSetCertificateSwapsLive: an explicit SetCertificate (the SIGHUP
// cert-reload path) changes what new handshakes see without a listen
// restart.
func TestSetCertificateSwapsLive(t *testing.T) {
	ring, err := nts.NewKeyRing(1)
	if err != nil {
		t.Fatal(err)
	}
	cert, _, err := SelfSigned(time.Now(), "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Ring: ring, TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}}}
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	before := peekCert(t, bound.String())
	next, _, err := SelfSigned(time.Now(), "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetCertificate(next)
	after := peekCert(t, bound.String())
	if after.SerialNumber.Cmp(before.SerialNumber) == 0 {
		t.Error("SetCertificate did not change the served certificate")
	}
}

// TestRotateLoopCheckpointsRing: with StatePath/StateKey set, every
// timed ring rotation leaves a state file a fresh server can restore
// — the cookies minted by this server remain decryptable after a
// restart from that checkpoint.
func TestRotateLoopCheckpointsRing(t *testing.T) {
	ring, err := nts.NewKeyRing(3)
	if err != nil {
		t.Fatal(err)
	}
	cert, certPEM, err := SelfSigned(time.Now(), "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	stateKey := make([]byte, nts.SIVKeyLen)
	for i := range stateKey {
		stateKey[i] = byte(i)
	}
	statePath := filepath.Join(t.TempDir(), "ring.state")
	srv := &Server{
		Ring:        ring,
		TLSConfig:   &tls.Config{Certificates: []tls.Certificate{cert}},
		RotateEvery: 50 * time.Millisecond,
		StatePath:   statePath,
		StateKey:    stateKey,
	}
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := x509.NewCertPool()
	pool.AppendCertsFromPEM(certPEM)
	sess, err := KeyExchange(bound.String(), &tls.Config{RootCAs: pool}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	start := ring.Epoch()
	deadline := time.Now().Add(5 * time.Second)
	for ring.Epoch() == start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if ring.Epoch() == start {
		t.Fatal("ring never rotated")
	}
	// Give the checkpoint following the rotation a moment to land.
	var restored *nts.KeyRing
	loaded := false
	for time.Now().Before(deadline) {
		restored, loaded, err = nts.LoadOrNewKeyRing(statePath, stateKey, 3)
		if loaded && restored.Epoch() >= start {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !loaded {
		t.Fatalf("no restorable checkpoint: %v", err)
	}
	// The restored ring verifies a request protected with a cookie the
	// live server handed out — the restart would not NAK this client.
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(7<<32))
	if _, err := sess.ProtectRequest(req); err != nil {
		t.Fatal(err)
	}
	p := new(ntppkt.Packet)
	err = p.DecodeInto(req.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nts.VerifyRequest(restored, p); err != nil {
		t.Fatalf("restored ring rejects live cookie: %v", err)
	}
}

// TestKEShutdownDrainsHandshake: Shutdown waits for an accepted
// exchange to finish before returning, and refuses new connections
// once called.
func TestKEShutdownDrainsHandshake(t *testing.T) {
	ring, err := nts.NewKeyRing(1)
	if err != nil {
		t.Fatal(err)
	}
	cert, certPEM, err := SelfSigned(time.Now(), "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Ring: ring, TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}}}
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := bound.String()
	pool := x509.NewCertPool()
	pool.AppendCertsFromPEM(certPEM)

	// Hold a raw TCP connection open (accepted, handshake not started)
	// so the drain has something in flight, then complete a KE while
	// Shutdown is pending.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	keDone := make(chan error, 1)
	go func() {
		_, kerr := KeyExchange(addr, &tls.Config{RootCAs: pool}, 5*time.Second)
		keDone <- kerr
	}()
	time.Sleep(50 * time.Millisecond)

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	if err := <-keDone; err != nil {
		t.Fatalf("in-flight KE failed during drain: %v", err)
	}
	raw.Close() // release the held connection; the drain completes
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// New connections are refused after Shutdown.
	if _, err := KeyExchange(addr, &tls.Config{RootCAs: pool}, time.Second); err == nil {
		t.Fatal("KE succeeded after Shutdown")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close after Shutdown: %v", err)
	}
}

// TestKEShutdownDeadline: a connection that never finishes its
// exchange forces the deadline path — Shutdown returns ctx.Err()
// instead of hanging.
func TestKEShutdownDeadline(t *testing.T) {
	ring, err := nts.NewKeyRing(1)
	if err != nil {
		t.Fatal(err)
	}
	cert, _, err := SelfSigned(time.Now(), "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Ring: ring, TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}}}
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", bound.String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	time.Sleep(50 * time.Millisecond) // let the accept land

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
}
