package nts

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mntp/internal/ntppkt"
)

// FuzzSIVAgainstReference holds the expanded-key core to the reference
// (sivref_test.go) on any key, 0–3 associated-data components and
// plaintexts up to 1024 bytes, under every AES path (aes_test.go): same
// sealed bytes, each opens the other's, and a flipped byte fails both.
func FuzzSIVAgainstReference(f *testing.F) {
	key := bytes.Repeat([]byte{0x3c}, SIVKeyLen)
	long := make([]byte, 1024)
	for i := range long {
		long[i] = byte(i * 7)
	}
	// Plaintext lengths around the xorend (16) and partial-block
	// boundaries, each with every AD count.
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 108, 1024} {
		for nAD := uint8(0); nAD <= 3; nAD++ {
			f.Add(key, nAD, long[:n/2], long[100:100+n%40], long[7:23], long[:n], uint16(n))
		}
	}
	sc := new(scratch)
	kernel := useAESNI
	paths := aesPaths(kernel)
	f.Fuzz(func(t *testing.T, key []byte, nAD uint8, ad0, ad1, ad2, pt []byte, flip uint16) {
		key = append(key, make([]byte, SIVKeyLen)...)[:SIVKeyLen]
		if len(pt) > 1024 {
			pt = pt[:1024]
		}
		ad := [][]byte{ad0, ad1, ad2}[:nAD%4]

		want, err := refSIVSeal(key, pt, ad...)
		if err != nil {
			t.Fatalf("reference seal: %v", err)
		}
		bad := bytes.Clone(want)
		bad[int(flip)%len(bad)] ^= 1 << (flip % 8)
		if _, err := refSIVOpen(key, bad, ad...); err != errAuthFailed {
			t.Fatalf("reference accepts a tampered seal: %v", err)
		}

		defer func() { useAESNI = kernel }()
		for _, path := range paths {
			useAESNI = path.aesni
			k, err := newSIVKey(key)
			if err != nil {
				t.Fatalf("newSIVKey: %v", err)
			}
			prefix := []byte("kept")
			got := k.seal(sc, prefix, pt, ad...)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%s seal diverges from the reference (pt %d B, %d AD):\n got  %x\n want %x", path.name, len(pt), len(ad), got[len(prefix):], want)
			}
			back, err := k.open(sc, prefix, want, ad...)
			if err != nil || !bytes.Equal(back[len(prefix):], pt) {
				t.Fatalf("open of the reference's seal: %v, %x", err, back)
			}
			if back, err := refSIVOpen(key, got[len(prefix):], ad...); err != nil || !bytes.Equal(back, pt) {
				t.Fatalf("reference open of the core's seal: %v, %x", err, back)
			}
			if out, err := k.open(sc, prefix, bad, ad...); err != errAuthFailed || len(out) != len(prefix) {
				t.Fatalf("tampered seal: err %v, %d bytes returned", err, len(out))
			}
		}
	})
}

// fuzzRing is a ring with a fixed master key, so that the corpus
// FuzzVerifyRequest keeps stays meaningful from run to run.
func fuzzRing(t testing.TB) *KeyRing {
	t.Helper()
	key, err := newMasterKey(bytes.Repeat([]byte{0x9d}, SIVKeyLen))
	if err != nil {
		t.Fatal(err)
	}
	return &KeyRing{depth: 1, next: 1, keys: map[uint32]masterKey{0: key}}
}

// authenticated returns the bytes of p the authenticator vouches for:
// the wire image before the authenticator field, the nonce and the
// sealed fields.
func authenticated(t testing.TB, p *ntppkt.Packet) []byte {
	t.Helper()
	_, idx := p.FindExt(ntppkt.ExtNTSAuthenticator)
	nonce, ct, err := parseAuthenticator(p, idx)
	if err != nil {
		t.Fatalf("authenticator of an accepted packet does not parse: %v", err)
	}
	prefix := *p
	prefix.Ext = p.Ext[:idx]
	prefix.LegacyMAC = nil
	return append(append(prefix.Encode(nil), nonce...), ct...)
}

// FuzzVerifyRequest feeds arbitrary bytes — and a valid request with
// arbitrary damage — through DecodeInto and the server's verify, on a
// ServerRequest reused the way the serve loop reuses its own. Nothing
// may panic, and whatever is accepted must be the valid request in
// every byte the authenticator covers: the fuzzer holds no key, so it
// cannot have made another.
func FuzzVerifyRequest(f *testing.F) {
	ring := fuzzRing(f)
	c2s, s2c := testKeys(0x77)
	valid := refRequest(f, ring, c2s, s2c, bytes.Repeat([]byte{0xa1}, uniqueIDLen),
		bytes.Repeat([]byte{0xb2}, cookiePadLen), bytes.Repeat([]byte{0xc3}, nonceLen))
	want := authenticated(f, mustDecode(f, valid))

	f.Add(valid, uint16(0), byte(0))
	f.Add(valid, uint16(ntppkt.HeaderLen+ntppkt.ExtHeaderLen), byte(0x01))             // unique identifier
	f.Add(valid, uint16(ntppkt.HeaderLen+36+ntppkt.ExtHeaderLen), byte(0x80))          // cookie epoch
	f.Add(valid, uint16(ntppkt.HeaderLen+36+108+2), byte(0x04))                        // authenticator length
	f.Add(valid, uint16(len(valid)-1), byte(0xff))                                     // tag
	f.Add(valid[:ntppkt.HeaderLen], uint16(3), byte(0x10))                             // bare header
	f.Add(append(bytes.Clone(valid), valid[ntppkt.HeaderLen:]...), uint16(0), byte(0)) // fields after the authenticator

	var sr ServerRequest
	var p, resp ntppkt.Packet
	if err := sr.Verify(ring, mustDecode(f, valid)); err != nil {
		f.Fatalf("the valid request does not verify: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint16, flip byte) {
		if len(data) > 0 {
			data = bytes.Clone(data)
			data[int(off)%len(data)] ^= flip
		}
		if p.DecodeInto(data) != nil {
			return
		}
		if err := sr.Verify(ring, &p); err != nil {
			return
		}
		if got := authenticated(t, &p); !bytes.Equal(got, want) {
			t.Fatalf("accepted a request whose authenticated bytes differ from the valid one's:\n got  %x\n want %x", got, want)
		}
		if !bytes.Equal(sr.C2S, c2s) || !bytes.Equal(sr.S2C, s2c) {
			t.Fatal("accepted request yields different association keys")
		}
		resp = ntppkt.Packet{Version: ntppkt.Version4, Mode: ntppkt.ModeServer, Origin: p.Transmit, Ext: resp.Ext[:0]}
		if err := ProtectResponse(ring, &sr, &resp); err != nil {
			t.Fatalf("ProtectResponse after an accepted request: %v", err)
		}
		if inner := refOpenAuthenticator(t, s2c, mustDecode(t, resp.Encode(nil))); len(inner)%(ntppkt.ExtHeaderLen+cookieLen) != 0 {
			t.Fatalf("reply's encrypted fields are %d bytes, not whole cookies", len(inner))
		}
	})
}

// FuzzLoadKeyRing feeds arbitrary state files to loadKeyRing, seeded
// with Save's output for a fixed eight-key ring under a fixed state
// key. Nothing may panic. The fuzzer holds no state key, so it cannot
// seal a file of its own: only Save's bytes load, and what loads is
// the ring that was saved. Save runs four times and must write one
// file, since every fuzz worker saves the ring for itself.
func FuzzLoadKeyRing(f *testing.F) {
	stateKey := bytes.Repeat([]byte{0x5a}, SIVKeyLen)
	ring := &KeyRing{depth: 7, next: 9, keys: map[uint32]masterKey{}}
	for e := uint32(1); e < 9; e++ {
		ring.keys[e], _ = newMasterKey(bytes.Repeat([]byte{byte(e)}, SIVKeyLen))
	}
	path := filepath.Join(f.TempDir(), "ring.state")
	var saved []byte
	for i := 0; i < 4; i++ {
		err := ring.Save(path, stateKey)
		data, _ := os.ReadFile(path)
		if err != nil || (saved != nil && !bytes.Equal(data, saved)) {
			f.Fatalf("Save: %v, or one ring saved twice wrote two different files", err)
		}
		saved = data
	}
	f.Add(saved)
	f.Add(saved[:len(saved)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		got, err := loadKeyRing(path, stateKey)
		if err != nil {
			return
		}
		if !bytes.Equal(data, saved) {
			t.Fatalf("loaded a file Save did not write: %x", data)
		}
		if got.next != ring.next || got.depth != ring.depth || len(got.keys) != len(ring.keys) {
			t.Fatalf("loaded next %d depth %d with %d keys, want %d, %d, %d",
				got.next, got.depth, len(got.keys), ring.next, ring.depth, len(ring.keys))
		}
		for e, k := range ring.keys {
			if !bytes.Equal(got.keys[e].raw, k.raw) || got.keys[e].siv == nil {
				t.Fatalf("epoch %d loaded without its key or its expansion", e)
			}
		}
	})
}
