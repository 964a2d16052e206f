package nts

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

// The NTS wire protocol written against the reference SIV
// (sivref_test.go), the way this package built it before the
// expanded-key core: a peer that shares no AEAD code with production.

// refSealCookie mints a cookie under the ring's current master key.
func refSealCookie(t testing.TB, ring *KeyRing, c2s, s2c, pad []byte) []byte {
	t.Helper()
	epoch := ring.Epoch()
	plain := binary.BigEndian.AppendUint16(nil, AEADAESSIVCMAC256)
	plain = binary.BigEndian.AppendUint16(plain, SIVKeyLen)
	plain = append(append(append(plain, c2s...), s2c...), pad...)
	cookie := binary.BigEndian.AppendUint32(nil, epoch)
	sealed, err := refSIVSeal(ring.keys[epoch].raw, plain, cookie)
	if err != nil {
		t.Fatalf("reference cookie seal: %v", err)
	}
	return append(cookie, sealed...)
}

// refOpenCookie recovers the association keys from a cookie.
func refOpenCookie(t testing.TB, ring *KeyRing, cookie []byte) (c2s, s2c []byte) {
	t.Helper()
	epoch := binary.BigEndian.Uint32(cookie)
	plain, err := refSIVOpen(ring.keys[epoch].raw, cookie[cookieEpochLen:], cookie[:cookieEpochLen])
	if err != nil {
		t.Fatalf("reference cookie open: %v", err)
	}
	return plain[4 : 4+SIVKeyLen], plain[4+SIVKeyLen : 4+2*SIVKeyLen]
}

// refSealAuthenticator appends the authenticator field to p.
func refSealAuthenticator(t testing.TB, key []byte, p *ntppkt.Packet, plaintext, nonce []byte) {
	t.Helper()
	ct, err := refSIVSeal(key, plaintext, p.Encode(nil), nonce)
	if err != nil {
		t.Fatalf("reference authenticator seal: %v", err)
	}
	body := binary.BigEndian.AppendUint16(nil, uint16(len(nonce)))
	body = binary.BigEndian.AppendUint16(body, uint16(len(ct)))
	body = append(append(body, nonce...), ct...)
	p.Ext = append(p.Ext, ntppkt.ExtField{Type: ntppkt.ExtNTSAuthenticator, Value: body})
}

// refOpenAuthenticator verifies p's authenticator and returns the
// decrypted inner fields.
func refOpenAuthenticator(t testing.TB, key []byte, p *ntppkt.Packet) []byte {
	t.Helper()
	ef, idx := p.FindExt(ntppkt.ExtNTSAuthenticator)
	if ef == nil {
		t.Fatal("no authenticator field")
	}
	nl := int(binary.BigEndian.Uint16(ef.Value[0:]))
	cl := int(binary.BigEndian.Uint16(ef.Value[2:]))
	prefix := *p
	prefix.Ext = p.Ext[:idx]
	plain, err := refSIVOpen(key, ef.Value[4+nl:4+nl+cl], prefix.Encode(nil), ef.Value[4:4+nl])
	if err != nil {
		t.Fatalf("reference authenticator open: %v", err)
	}
	return plain
}

// refRequest is a steady-state protected request — unique identifier,
// one cookie, authenticator; 232 bytes — with every random input given.
func refRequest(t testing.TB, ring *KeyRing, c2s, s2c, uid, pad, nonce []byte) []byte {
	t.Helper()
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(0x123456789abc0000))
	req.Ext = []ntppkt.ExtField{
		{Type: ntppkt.ExtUniqueIdentifier, Value: uid},
		{Type: ntppkt.ExtNTSCookie, Value: refSealCookie(t, ring, c2s, s2c, pad)},
	}
	refSealAuthenticator(t, c2s, req, nil, nonce)
	return req.Encode(nil)
}

func mustDecode(t testing.TB, wire []byte) *ntppkt.Packet {
	t.Helper()
	p, err := ntppkt.Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return p
}

// TestReferenceClientInteroperates: a request the reference sealed
// verifies under the production server, and the reply the production
// server seals verifies under the reference, re-supplied cookie
// included.
func TestReferenceClientInteroperates(t *testing.T) {
	forEachAESPath(t, func(t *testing.T) {
		ring := testRing(t, 1)
		c2s, s2c := testKeys(0x66)
		uid := bytes.Repeat([]byte{0xa1}, UniqueIDLen)
		wire := refRequest(t, ring, c2s, s2c, uid, bytes.Repeat([]byte{0xb2}, cookiePadLen), bytes.Repeat([]byte{0xc3}, nonceLen))
		if len(wire) != 232 {
			t.Fatalf("reference request is %d bytes, want 232", len(wire))
		}
		onWire := mustDecode(t, wire)
		sreq, err := VerifyRequest(ring, onWire)
		if err != nil {
			t.Fatalf("production server rejects the reference's request: %v", err)
		}
		if !bytes.Equal(sreq.C2S, c2s) || !bytes.Equal(sreq.S2C, s2c) || !bytes.Equal(sreq.UID, uid) {
			t.Fatal("production server recovered different association parameters")
		}
		resp := &ntppkt.Packet{Version: ntppkt.Version4, Mode: ntppkt.ModeServer, Stratum: 2, Origin: onWire.Transmit}
		if err := ProtectResponse(ring, sreq, resp); err != nil {
			t.Fatalf("ProtectResponse: %v", err)
		}
		replyWire := resp.Encode(nil)
		if len(replyWire) != 232 {
			t.Fatalf("production reply is %d bytes, want 232", len(replyWire))
		}
		inner := refOpenAuthenticator(t, s2c, mustDecode(t, replyWire))
		if len(inner) != ntppkt.ExtHeaderLen+CookieLen || binary.BigEndian.Uint16(inner) != ntppkt.ExtNTSCookie {
			t.Fatalf("reply's encrypted fields are not one cookie: %x", inner)
		}
		gotC2S, gotS2C := refOpenCookie(t, ring, inner[ntppkt.ExtHeaderLen:])
		if !bytes.Equal(gotC2S, c2s) || !bytes.Equal(gotS2C, s2c) {
			t.Fatal("re-supplied cookie carries different keys")
		}
	})
}

// TestReferenceServerInteroperates is the other direction: the
// production client's request verifies under the reference, and the
// reply the reference seals verifies under the production client and
// refills its jar.
func TestReferenceServerInteroperates(t *testing.T) {
	forEachAESPath(t, func(t *testing.T) {
		ring := testRing(t, 1)
		s := newTestSession(t, ring, DefaultJarCapacity)
		req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(7<<32))
		st, err := s.ProtectRequest(req)
		if err != nil {
			t.Fatalf("ProtectRequest: %v", err)
		}
		wire := req.Encode(nil)
		if len(wire) != 232 {
			t.Fatalf("production request is %d bytes, want 232", len(wire))
		}
		onWire := mustDecode(t, wire)
		cookieEF, _ := onWire.FindExt(ntppkt.ExtNTSCookie)
		c2s, s2c := refOpenCookie(t, ring, cookieEF.Value)
		if !bytes.Equal(c2s, s.C2S) || !bytes.Equal(s2c, s.S2C) {
			t.Fatal("reference recovered different keys from the production cookie")
		}
		if inner := refOpenAuthenticator(t, c2s, onWire); len(inner) != 0 {
			t.Fatalf("request authenticator encrypts %d bytes, want none", len(inner))
		}

		resp := &ntppkt.Packet{Version: ntppkt.Version4, Mode: ntppkt.ModeServer, Stratum: 2, Origin: onWire.Transmit}
		resp.Ext = []ntppkt.ExtField{{Type: ntppkt.ExtUniqueIdentifier, Value: st.UID}}
		cookie := refSealCookie(t, ring, c2s, s2c, bytes.Repeat([]byte{0xd4}, cookiePadLen))
		inner := binary.BigEndian.AppendUint16(nil, ntppkt.ExtNTSCookie)
		inner = binary.BigEndian.AppendUint16(inner, uint16(ntppkt.ExtHeaderLen+len(cookie)))
		refSealAuthenticator(t, s2c, resp, append(inner, cookie...), bytes.Repeat([]byte{0xe5}, nonceLen))
		before := s.CookieCount()
		if err := s.VerifyReply(mustDecode(t, resp.Encode(nil)), st); err != nil {
			t.Fatalf("production client rejects the reference's reply: %v", err)
		}
		if got := s.CookieCount(); got != before+1 {
			t.Fatalf("jar holds %d cookies after the reply, want %d", got, before+1)
		}
	})
}
