package nts

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

func testRing(t testing.TB, depth int) *KeyRing {
	t.Helper()
	ring, err := NewKeyRing(depth)
	if err != nil {
		t.Fatalf("NewKeyRing: %v", err)
	}
	return ring
}

func testKeys(fill byte) (c2s, s2c []byte) {
	c2s = bytes.Repeat([]byte{fill}, SIVKeyLen)
	s2c = bytes.Repeat([]byte{fill ^ 0xff}, SIVKeyLen)
	return
}

func TestCookieRoundTrip(t *testing.T) {
	ring := testRing(t, 2)
	c2s, s2c := testKeys(0x11)
	cookie, err := ring.SealCookie(AEADAESSIVCMAC256, c2s, s2c)
	if err != nil {
		t.Fatalf("SealCookie: %v", err)
	}
	if len(cookie) != CookieLen {
		t.Fatalf("cookie length = %d, want %d", len(cookie), CookieLen)
	}
	aead, gotC2S, gotS2C, err := ring.OpenCookie(cookie)
	if err != nil {
		t.Fatalf("OpenCookie: %v", err)
	}
	if aead != AEADAESSIVCMAC256 || !bytes.Equal(gotC2S, c2s) || !bytes.Equal(gotS2C, s2c) {
		t.Fatal("cookie did not round-trip the association parameters")
	}
}

// TestCookieSurvivesRotation pins the key-epoch ring contract: a
// cookie minted under epoch k verifies for depth rotations and fails
// with ErrCookieEpoch once its epoch leaves the ring.
func TestCookieSurvivesRotation(t *testing.T) {
	const depth = 2
	ring := testRing(t, depth)
	c2s, s2c := testKeys(0x22)
	cookie, err := ring.SealCookie(AEADAESSIVCMAC256, c2s, s2c)
	if err != nil {
		t.Fatalf("SealCookie: %v", err)
	}
	for i := 0; i < depth; i++ {
		if err := ring.Rotate(); err != nil {
			t.Fatalf("Rotate %d: %v", i, err)
		}
		if _, _, _, err := ring.OpenCookie(cookie); err != nil {
			t.Fatalf("cookie failed after %d rotations (depth %d): %v", i+1, depth, err)
		}
	}
	if err := ring.Rotate(); err != nil {
		t.Fatalf("final Rotate: %v", err)
	}
	if _, _, _, err := ring.OpenCookie(cookie); !errors.Is(err, ErrCookieEpoch) {
		t.Fatalf("cookie after ring exhaustion: want ErrCookieEpoch, got %v", err)
	}
}

// TestCookieUnlinkable: two cookies for the same association must
// share no ciphertext, or an on-path observer could link the requests
// that spend them.
func TestCookieUnlinkable(t *testing.T) {
	ring := testRing(t, 1)
	c2s, s2c := testKeys(0x33)
	a, err := ring.SealCookie(AEADAESSIVCMAC256, c2s, s2c)
	if err != nil {
		t.Fatalf("SealCookie: %v", err)
	}
	b, err := ring.SealCookie(AEADAESSIVCMAC256, c2s, s2c)
	if err != nil {
		t.Fatalf("SealCookie: %v", err)
	}
	if bytes.Equal(a[cookieEpochLen:], b[cookieEpochLen:]) {
		t.Fatal("two cookies for the same keys have identical ciphertext")
	}
}

func TestCookieGarbageRejected(t *testing.T) {
	ring := testRing(t, 1)
	if _, _, _, err := ring.OpenCookie(make([]byte, 10)); !errors.Is(err, ErrCookieFormat) {
		t.Fatalf("short cookie: want ErrCookieFormat, got %v", err)
	}
	c2s, s2c := testKeys(0x44)
	cookie, _ := ring.SealCookie(AEADAESSIVCMAC256, c2s, s2c)
	cookie[CookieLen-1] ^= 0x01
	if _, _, _, err := ring.OpenCookie(cookie); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("tampered cookie: want ErrAuthFailed, got %v", err)
	}
}

// newTestSession builds a client session whose jar was filled by the
// given ring, as NTS-KE would.
func newTestSession(t testing.TB, ring *KeyRing, n int) *Session {
	t.Helper()
	c2s, s2c := testKeys(0x55)
	s := &Session{AEAD: AEADAESSIVCMAC256, C2S: c2s, S2C: s2c}
	var cookies [][]byte
	for i := 0; i < n; i++ {
		c, err := ring.SealCookie(AEADAESSIVCMAC256, c2s, s2c)
		if err != nil {
			t.Fatalf("SealCookie: %v", err)
		}
		cookies = append(cookies, c)
	}
	s.AddCookies(cookies)
	return s
}

// exchangeOnce runs one protected request/verified reply round trip
// through encode/decode, as the UDP path would, and returns the
// decoded wire images for further inspection.
func exchangeOnce(t *testing.T, ring *KeyRing, s *Session) (reqWire, respWire []byte) {
	t.Helper()
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(0x123456789abc0000))
	st, err := s.ProtectRequest(req)
	if err != nil {
		t.Fatalf("ProtectRequest: %v", err)
	}
	reqWire = req.Encode(nil)

	onWire, err := ntppkt.Decode(reqWire)
	if err != nil {
		t.Fatalf("server decode: %v", err)
	}
	sreq, err := VerifyRequest(ring, onWire)
	if err != nil {
		t.Fatalf("VerifyRequest: %v", err)
	}
	resp := &ntppkt.Packet{
		Version:  ntppkt.Version4,
		Mode:     ntppkt.ModeServer,
		Stratum:  2,
		Origin:   onWire.Transmit,
		Transmit: ntptime.Timestamp(0x1234567900000000),
	}
	if err := ProtectResponse(ring, sreq, resp); err != nil {
		t.Fatalf("ProtectResponse: %v", err)
	}
	respWire = resp.Encode(nil)

	back, err := ntppkt.Decode(respWire)
	if err != nil {
		t.Fatalf("client decode: %v", err)
	}
	if err := s.VerifyReply(back, st); err != nil {
		t.Fatalf("VerifyReply: %v", err)
	}
	return reqWire, respWire
}

// TestProtectVerifyRoundTrip drives the full client↔server crypto
// path with a jar below capacity and checks that placeholder-driven
// re-supply refills it to capacity in one exchange.
func TestProtectVerifyRoundTrip(t *testing.T) {
	ring := testRing(t, 1)
	s := newTestSession(t, ring, 3)
	exchangeOnce(t, ring, s)
	if got := s.CookieCount(); got != DefaultJarCapacity {
		t.Fatalf("jar after exchange = %d, want %d", got, DefaultJarCapacity)
	}
	// A full jar asks for exactly one replacement.
	exchangeOnce(t, ring, s)
	if got := s.CookieCount(); got != DefaultJarCapacity {
		t.Fatalf("jar after steady-state exchange = %d, want %d", got, DefaultJarCapacity)
	}
}

// TestReplyCookiesUnlinkable: consecutive replies must never repeat
// cookie ciphertext, and the re-supply must ride inside the encrypted
// authenticator rather than as plaintext cookie fields.
func TestReplyCookiesUnlinkable(t *testing.T) {
	ring := testRing(t, 1)
	s := newTestSession(t, ring, DefaultJarCapacity)
	_, wire1 := exchangeOnce(t, ring, s)
	_, wire2 := exchangeOnce(t, ring, s)
	if bytes.Equal(wire1[ntppkt.HeaderLen:], wire2[ntppkt.HeaderLen:]) {
		t.Fatal("two replies carried identical extension bytes")
	}
	for i, w := range [][]byte{wire1, wire2} {
		p, err := ntppkt.Decode(w)
		if err != nil {
			t.Fatalf("decode reply %d: %v", i, err)
		}
		if ef, _ := p.FindExt(ntppkt.ExtNTSCookie); ef != nil {
			t.Fatalf("reply %d carries a plaintext cookie field", i)
		}
	}
}

func TestVerifyRequestTamper(t *testing.T) {
	ring := testRing(t, 1)
	s := newTestSession(t, ring, DefaultJarCapacity)
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(1<<32))
	if _, err := s.ProtectRequest(req); err != nil {
		t.Fatalf("ProtectRequest: %v", err)
	}
	wire := req.Encode(nil)

	// Flip one bit in the unique identifier: the authenticator's AD
	// covers it, so verification must fail.
	mut := append([]byte(nil), wire...)
	mut[ntppkt.HeaderLen+ntppkt.ExtHeaderLen] ^= 0x01
	p, err := ntppkt.Decode(mut)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !IsNTSRequest(p) {
		t.Fatal("tampered request no longer looks like NTS")
	}
	if _, err := VerifyRequest(ring, p); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("tampered UID: want ErrAuthFailed, got %v", err)
	}

	// A cookie from a foreign ring must fail too (wrong master key).
	other := testRing(t, 1)
	p2, _ := ntppkt.Decode(wire)
	if _, err := VerifyRequest(other, p2); err == nil {
		t.Fatal("foreign ring accepted the cookie")
	}
}

func TestVerifyReplyRejections(t *testing.T) {
	ring := testRing(t, 1)
	s := newTestSession(t, ring, DefaultJarCapacity)
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(2<<32))
	st, err := s.ProtectRequest(req)
	if err != nil {
		t.Fatalf("ProtectRequest: %v", err)
	}

	nak := &ntppkt.Packet{
		Version: ntppkt.Version4,
		Mode:    ntppkt.ModeServer,
		Stratum: ntppkt.StratumKoD,
		RefID:   ntppkt.KissNTSN,
		Origin:  req.Transmit,
	}
	ProtectNAK(st.UID, nak)
	if err := s.VerifyReply(nak, st); !errors.Is(err, ErrNTSNak) {
		t.Fatalf("NTS NAK: want ErrNTSNak, got %v", err)
	}

	plain := &ntppkt.Packet{Version: ntppkt.Version4, Mode: ntppkt.ModeServer, Stratum: 2}
	if err := s.VerifyReply(plain, st); !errors.Is(err, ErrUniqueIDMismatch) {
		t.Fatalf("reply without UID: want ErrUniqueIDMismatch, got %v", err)
	}
}

func TestProtectRequestJarEmpty(t *testing.T) {
	ring := testRing(t, 1)
	s := newTestSession(t, ring, 1)
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(3<<32))
	if _, err := s.ProtectRequest(req); err != nil {
		t.Fatalf("first ProtectRequest: %v", err)
	}
	req2 := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(4<<32))
	if _, err := s.ProtectRequest(req2); !errors.Is(err, ErrJarEmpty) {
		t.Fatalf("empty jar: want ErrJarEmpty, got %v", err)
	}

	s.ReuseWhenDry = true
	req3 := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(5<<32))
	st, err := s.ProtectRequest(req3)
	if err != nil {
		t.Fatalf("ReuseWhenDry ProtectRequest: %v", err)
	}
	wire := req3.Encode(nil)
	p, err := ntppkt.Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, err := VerifyRequest(ring, p); err != nil {
		t.Fatalf("reused cookie rejected: %v", err)
	}
	_ = st
}

// TestRotatedOutEpochLeavesNoKey: the expansion of a master key lives
// and dies with its epoch. A request whose cookie was good for depth
// rotations draws ErrCookieEpoch from the serve path's reused
// ServerRequest the moment Rotate evicts the epoch, and the ring holds
// no key, raw or expanded, beyond its window.
func TestRotatedOutEpochLeavesNoKey(t *testing.T) {
	const depth = 2
	ring := testRing(t, depth)
	s := newTestSession(t, ring, 1)
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(6<<32))
	if _, err := s.ProtectRequest(req); err != nil {
		t.Fatalf("ProtectRequest: %v", err)
	}
	onWire, err := ntppkt.Decode(req.Encode(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var sr ServerRequest
	for i := 0; i <= depth; i++ {
		if err := sr.Verify(ring, onWire); err != nil {
			t.Fatalf("after %d rotations (depth %d): %v", i, depth, err)
		}
		if err := ring.Rotate(); err != nil {
			t.Fatalf("Rotate: %v", err)
		}
	}
	if err := sr.Verify(ring, onWire); !errors.Is(err, ErrCookieEpoch) {
		t.Fatalf("rotated-out cookie: want ErrCookieEpoch, got %v", err)
	}
	if _, held := ring.keys[0]; held || len(ring.keys) != depth+1 {
		t.Fatalf("ring holds %d epochs (epoch 0 held: %v), want %d without epoch 0", len(ring.keys), held, depth+1)
	}
}

// TestRotateDuringServing runs the whole server half — cookie open,
// verify, mint, seal — from several goroutines, each with its own
// ServerRequest as the serve loops have, while the ring rotates under
// them; the -race leg is what this is for. A request may lose its
// epoch to the rotation, nothing else may fail, and every reply minted
// must open under the ring that minted it.
func TestRotateDuringServing(t *testing.T) {
	ring := testRing(t, 3)
	stop := make(chan struct{})
	var rotator, servers sync.WaitGroup
	rotator.Add(1)
	go func() {
		defer rotator.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ring.Rotate(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		servers.Add(1)
		go func(g int) {
			defer servers.Done()
			c2s, s2c := testKeys(byte(g))
			var sr ServerRequest
			var resp ntppkt.Packet
			for i := 0; i < 300; i++ {
				cookie, err := ring.SealCookie(AEADAESSIVCMAC256, c2s, s2c)
				if err != nil {
					t.Error(err)
					return
				}
				s := &Session{AEAD: AEADAESSIVCMAC256, C2S: c2s, S2C: s2c}
				s.AddCookies([][]byte{cookie})
				req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(i+1)<<32)
				st, err := s.ProtectRequest(req)
				if err != nil {
					t.Error(err)
					return
				}
				if err := sr.Verify(ring, req); err != nil {
					if !errors.Is(err, ErrCookieEpoch) {
						t.Errorf("verify during rotation: %v", err)
						return
					}
					continue
				}
				resp = ntppkt.Packet{Version: ntppkt.Version4, Mode: ntppkt.ModeServer, Stratum: 2, Origin: req.Transmit, Ext: resp.Ext[:0]}
				if err := ProtectResponse(ring, &sr, &resp); err != nil {
					t.Errorf("ProtectResponse during rotation: %v", err)
					return
				}
				if err := s.VerifyReply(&resp, st); err != nil {
					t.Errorf("VerifyReply during rotation: %v", err)
					return
				}
				if s.CookieCount() == 0 {
					t.Error("reply carried no cookie")
					return
				}
			}
		}(g)
	}
	servers.Wait()
	close(stop)
	rotator.Wait()
}
