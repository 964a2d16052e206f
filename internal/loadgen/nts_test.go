package loadgen

import (
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mntp/internal/ntpnet"
	"mntp/internal/ntppkt"
	"mntp/internal/nts"
	"mntp/internal/ntske"
)

// TestClassifyReplyNTSNak pins that NTS NAK kisses land in their own
// bucket, never mixed into RATE or other KoD: a NAK means the server
// refused authentication, not load, and a capacity run must tell the
// two apart.
func TestClassifyReplyNTSNak(t *testing.T) {
	nak := &ntppkt.Packet{Mode: ntppkt.ModeServer, Stratum: ntppkt.StratumKoD, RefID: ntppkt.KissNTSN}
	class, code := classifyReply(nak)
	if class != replyKoDNTS || code != "NTSN" {
		t.Fatalf("ClassifyReply(NTSN) = (%v, %q), want (%v, %q)", class, code, replyKoDNTS, "NTSN")
	}

	e := &engine{cfg: Config{Target: "t", Rate: 1, Duration: time.Second, Senders: 1},
		timeout: time.Second, kodCodes: make(map[string]uint64)}
	e.countKoD(replyKoDNTS, "NTSN")
	e.countKoD(replyKoDRate, "RATE")
	r := e.report(time.Second)
	if r.KoD != 2 || r.KoDNTS != 1 || r.KoDRate != 1 {
		t.Errorf("KoD=%d KoDNTS=%d KoDRate=%d, want 2/1/1", r.KoD, r.KoDNTS, r.KoDRate)
	}
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"kod_nts":1`) {
		t.Errorf("JSON lacks kod_nts: %s", out)
	}
}

// startNTSLoadStack brings up a UDP server verifying against ntpRing
// and an NTS-KE server minting cookies from keRing. Splitting the two
// rings lets a test hand clients cookies the NTP server cannot open.
func startNTSLoadStack(t *testing.T, ntpRing, keRing *nts.KeyRing) (ntpAddr, keAddr string, clientTLS *tls.Config) {
	t.Helper()
	srv, addr := startServer(t, func(s *ntpnet.Server) { s.NTS = ntpRing })
	_ = srv

	cert, certPEM, err := ntske.SelfSigned(time.Now(), "127.0.0.1")
	if err != nil {
		t.Fatalf("SelfSigned: %v", err)
	}
	ke := &ntske.Server{
		Ring:      keRing,
		TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}},
		NTPHost:   "127.0.0.1",
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
	return addr, keBound.String(), &tls.Config{RootCAs: pool}
}

// TestRunNTSAgainstServer: an authenticated load run on loopback.
// Every request carries NTS extension fields, every reply verifies,
// and the server's own counters agree that the traffic was NTS.
func TestRunNTSAgainstServer(t *testing.T) {
	ring, err := nts.NewKeyRing(2)
	if err != nil {
		t.Fatal(err)
	}
	ntpAddr, keAddr, clientTLS := startNTSLoadStack(t, ring, ring)

	rep, err := Run(Config{
		Target: ntpAddr, Rate: 1000, Duration: 300 * time.Millisecond,
		Senders: 2, Arrival: arrivalFixed, Timeout: 500 * time.Millisecond, Seed: 11,
		NTS: &NTSConfig{KEAddr: keAddr, TLSConfig: clientTLS, Sessions: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NTSSessions != 2 {
		t.Errorf("NTSSessions = %d, want 2", rep.NTSSessions)
	}
	if rep.Received == 0 {
		t.Fatal("no authenticated replies received")
	}
	if frac := float64(rep.Received) / float64(rep.Sent); frac < 0.9 {
		t.Errorf("only %.0f%% of authenticated requests answered on loopback", 100*frac)
	}
	if rep.KoDNTS != 0 || rep.NTSAuthFail != 0 || rep.NTSProtectErrors != 0 {
		t.Errorf("clean run reported kod_nts=%d auth_fail=%d protect_err=%d, want all 0",
			rep.KoDNTS, rep.NTSAuthFail, rep.NTSProtectErrors)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"nts_sessions":2`) {
		t.Errorf("JSON report missing nts_sessions: %s", js)
	}
}

// TestRunNTSStaleCookiesClassifiedAsNAK: the KE server mints cookies
// from a ring the NTP server has never seen, so every request is
// refused with NTS NAK — and the report must say exactly that: zero
// served, zero lost-as-loss confusion, all replies in kod_nts.
func TestRunNTSStaleCookiesClassifiedAsNAK(t *testing.T) {
	ntpRing, err := nts.NewKeyRing(2)
	if err != nil {
		t.Fatal(err)
	}
	keRing, err := nts.NewKeyRing(2)
	if err != nil {
		t.Fatal(err)
	}
	ntpAddr, keAddr, clientTLS := startNTSLoadStack(t, ntpRing, keRing)

	rep, err := Run(Config{
		Target: ntpAddr, Rate: 500, Duration: 200 * time.Millisecond,
		Senders: 2, Arrival: arrivalFixed, Timeout: 500 * time.Millisecond, Seed: 13,
		NTS: &NTSConfig{KEAddr: keAddr, TLSConfig: clientTLS, Sessions: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Received != 0 {
		t.Errorf("received %d verified replies with cookies the server cannot open", rep.Received)
	}
	if rep.KoDNTS == 0 {
		t.Fatal("no NTS NAKs counted — unopenable cookies must be refused explicitly")
	}
	if rep.KoDNTS != rep.KoD {
		t.Errorf("KoDNTS=%d KoD=%d: NAKs leaked into other KoD buckets", rep.KoDNTS, rep.KoD)
	}
	if rep.KoDCodes["NTSN"] != rep.KoDNTS {
		t.Errorf("KoDCodes=%v, want NTSN:%d", rep.KoDCodes, rep.KoDNTS)
	}
}

// TestRunNTSKEFailure: an unreachable KE server must fail the run up
// front, not silently degrade to plain traffic.
func TestRunNTSKEFailure(t *testing.T) {
	ring, err := nts.NewKeyRing(1)
	if err != nil {
		t.Fatal(err)
	}
	ntpAddr, _, _ := startNTSLoadStack(t, ring, ring)
	_, err = Run(Config{
		Target: ntpAddr, Rate: 100, Duration: 100 * time.Millisecond,
		Senders: 1, Timeout: 200 * time.Millisecond,
		NTS: &NTSConfig{KEAddr: "127.0.0.1:1", KETimeout: 500 * time.Millisecond},
	})
	if err == nil {
		t.Fatal("Run succeeded with an unreachable NTS-KE server")
	}
}
