package nts

import (
	"bytes"
	"encoding/hex"
	"testing"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// TestSIVDeterministicVector is the RFC 5297 appendix A.1
// deterministic-authenticated-encryption example: one associated-data
// string, no nonce.
func TestSIVDeterministicVector(t *testing.T) {
	forEachAESPath(t, func(t *testing.T) {
		key := unhex(t, "fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
		ad := unhex(t, "101112131415161718191a1b1c1d1e1f2021222324252627")
		pt := unhex(t, "112233445566778899aabbccddee")
		want := unhex(t, "85632d07c6e8f37f950acd320a2ecc9340c02b9690c4dc04daef7f6afe5c")

		got, err := sivSeal(key, pt, ad)
		if err != nil {
			t.Fatalf("sivSeal: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("A.1 seal mismatch:\n got  %x\n want %x", got, want)
		}
		back, err := sivOpen(key, got, ad)
		if err != nil {
			t.Fatalf("sivOpen: %v", err)
		}
		if !bytes.Equal(back, pt) {
			t.Fatalf("A.1 open mismatch: got %x want %x", back, pt)
		}
	})
}

// TestSIVNonceBasedVector is the RFC 5297 appendix A.2 nonce-based
// authenticated-encryption example: two associated-data strings plus
// a nonce, which in SIV's S2V construction is simply the last
// component before the plaintext.
func TestSIVNonceBasedVector(t *testing.T) {
	forEachAESPath(t, func(t *testing.T) {
		key := unhex(t, "7f7e7d7c7b7a79787776757473727170404142434445464748494a4b4c4d4e4f")
		ad1 := unhex(t, "00112233445566778899aabbccddeeffdeaddadadeaddadaffeeddccbbaa99887766554433221100")
		ad2 := unhex(t, "102030405060708090a0")
		nonce := unhex(t, "09f911029d74e35bd84156c5635688c0")
		pt := unhex(t, "7468697320697320736f6d6520706c61696e7465787420746f20656e6372797074207573696e67205349562d414553")
		want := unhex(t, "7bdb6e3b432667eb06f4d14bff2fbd0fcb900f2fddbe404326601965c889bf17dba77ceb094fa663b7a3f748ba8af829ea64ad544a272e9c485b62a3fd5c0d")

		got, err := sivSeal(key, pt, ad1, ad2, nonce)
		if err != nil {
			t.Fatalf("sivSeal: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("A.2 seal mismatch:\n got  %x\n want %x", got, want)
		}
		back, err := sivOpen(key, got, ad1, ad2, nonce)
		if err != nil {
			t.Fatalf("sivOpen: %v", err)
		}
		if !bytes.Equal(back, pt) {
			t.Fatalf("A.2 open mismatch: got %x want %x", back, pt)
		}
	})
}

func TestSIVTamperRejected(t *testing.T) {
	forEachAESPath(t, func(t *testing.T) {
		key := bytes.Repeat([]byte{0x42}, SIVKeyLen)
		ad := []byte("associated data")
		sealed, err := sivSeal(key, []byte("the plaintext"), ad)
		if err != nil {
			t.Fatalf("sivSeal: %v", err)
		}
		for i := range sealed {
			mut := append([]byte(nil), sealed...)
			mut[i] ^= 0x01
			if _, err := sivOpen(key, mut, ad); err != ErrAuthFailed {
				t.Fatalf("flip byte %d: want ErrAuthFailed, got %v", i, err)
			}
		}
		if _, err := sivOpen(key, sealed, []byte("other ad")); err != ErrAuthFailed {
			t.Fatalf("wrong AD: want ErrAuthFailed, got %v", err)
		}
		if _, err := sivOpen(key, sealed[:10]); err != ErrAuthFailed {
			t.Fatalf("short input: want ErrAuthFailed, got %v", err)
		}
	})
}

func TestSIVEmptyPlaintext(t *testing.T) {
	forEachAESPath(t, func(t *testing.T) {
		key := bytes.Repeat([]byte{0x07}, SIVKeyLen)
		nonce := bytes.Repeat([]byte{0x0a}, 16)
		sealed, err := sivSeal(key, nil, []byte("header image"), nonce)
		if err != nil {
			t.Fatalf("sivSeal: %v", err)
		}
		if len(sealed) != SIVOverhead {
			t.Fatalf("empty-plaintext ciphertext length = %d, want %d", len(sealed), SIVOverhead)
		}
		pt, err := sivOpen(key, sealed, []byte("header image"), nonce)
		if err != nil {
			t.Fatalf("sivOpen: %v", err)
		}
		if len(pt) != 0 {
			t.Fatalf("want empty plaintext, got %x", pt)
		}
	})
}

func TestSIVKeyLength(t *testing.T) {
	if _, err := sivSeal(make([]byte, 16), []byte("x")); err == nil {
		t.Fatal("16-byte key accepted")
	}
	if _, err := sivOpen(make([]byte, 64), make([]byte, 32)); err == nil {
		t.Fatal("64-byte key accepted")
	}
}

// TestDblMatchesByteLoop holds dbl's two 64-bit words to the byte loop
// they replaced (refDbl) along two doubling chains long enough to
// carry across the word boundary and out of the top bit many times.
func TestDblMatchesByteLoop(t *testing.T) {
	for _, b := range [][16]byte{{15: 0x01}, {0: 0x80, 7: 0xa5, 8: 0x5a, 15: 0x87}} {
		got, want := b, b
		for i := 0; i < 300; i++ {
			dbl(&got)
			refDbl(&want)
			if got != want {
				t.Fatalf("%x doubled %d times: %x, the byte loop gives %x", b, i+1, got, want)
			}
		}
	}
}
