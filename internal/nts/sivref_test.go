package nts

// The straightforward AES-SIV-CMAC-256 this package shipped before the
// expanded-key core: every call expands both key halves, re-derives the
// CMAC subkeys and allocates each block. Kept in test code only, as the
// reference the differential fuzz target and the interop tests compare
// the production core against.

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"errors"
)

func refXorBlock(dst *[16]byte, src [16]byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// refCMACKeys derives the two CMAC subkeys (RFC 4493 §2.3).
func refCMACKeys(c cipher.Block) (k1, k2 [16]byte) {
	var l [16]byte
	c.Encrypt(l[:], l[:])
	k1 = l
	refDbl(&k1)
	k2 = k1
	refDbl(&k2)
	return
}

// refDbl doubles a block in GF(2^128) (RFC 5297 §2.3) a byte at a
// time: the loop the production dbl's two 64-bit words replaced.
func refDbl(b *[16]byte) {
	msb := b[0] >> 7
	for i := 0; i < 15; i++ {
		b[i] = b[i]<<1 | b[i+1]>>7
	}
	b[15] <<= 1
	if msb == 1 {
		b[15] ^= 0x87
	}
}

// refCMACSum computes AES-CMAC (RFC 4493) of msg.
func refCMACSum(c cipher.Block, k1, k2 [16]byte, msg []byte) [16]byte {
	var x [16]byte
	n := len(msg)
	for n > 16 {
		var m [16]byte
		copy(m[:], msg[:16])
		refXorBlock(&x, m)
		c.Encrypt(x[:], x[:])
		msg = msg[16:]
		n -= 16
	}
	var last [16]byte
	if n == 16 {
		copy(last[:], msg)
		refXorBlock(&last, k1)
	} else {
		copy(last[:], msg)
		last[n] = 0x80
		refXorBlock(&last, k2)
	}
	refXorBlock(&x, last)
	c.Encrypt(x[:], x[:])
	return x
}

// refS2V computes the S2V function of RFC 5297 §2.4 over the given
// strings (associated data components, the nonce if any, and the
// plaintext last).
func refS2V(c cipher.Block, k1, k2 [16]byte, strings ...[]byte) [16]byte {
	if len(strings) == 0 {
		var one [16]byte
		one[15] = 0x01
		return refCMACSum(c, k1, k2, one[:])
	}
	var zero [16]byte
	d := refCMACSum(c, k1, k2, zero[:])
	for _, s := range strings[:len(strings)-1] {
		refDbl(&d)
		refXorBlock(&d, refCMACSum(c, k1, k2, s))
	}
	sn := strings[len(strings)-1]
	var t []byte
	if len(sn) >= 16 {
		// xorend: XOR D into the last 16 bytes of Sn.
		t = make([]byte, len(sn))
		copy(t, sn)
		off := len(t) - 16
		for i := 0; i < 16; i++ {
			t[off+i] ^= d[i]
		}
	} else {
		refDbl(&d)
		var padded [16]byte
		copy(padded[:], sn)
		padded[len(sn)] = 0x80
		refXorBlock(&d, padded)
		t = d[:]
	}
	return refCMACSum(c, k1, k2, t)
}

// refSIVCiphers splits a 32-byte AES-SIV-CMAC-256 key into the S2V
// (first half) and CTR (second half) AES blocks.
func refSIVCiphers(key []byte) (s2vBlock, ctrBlock cipher.Block, err error) {
	if len(key) != SIVKeyLen {
		return nil, nil, errors.New("nts: AES-SIV-CMAC-256 key must be 32 bytes")
	}
	if s2vBlock, err = aes.NewCipher(key[:16]); err != nil {
		return nil, nil, err
	}
	if ctrBlock, err = aes.NewCipher(key[16:]); err != nil {
		return nil, nil, err
	}
	return s2vBlock, ctrBlock, nil
}

// refSIVCTR runs AES-CTR keyed with ctrBlock over src using the
// synthetic IV with the two reserved bits cleared (RFC 5297 §2.6).
func refSIVCTR(ctrBlock cipher.Block, iv [16]byte, dst, src []byte) {
	iv[8] &= 0x7f
	iv[12] &= 0x7f
	cipher.NewCTR(ctrBlock, iv[:]).XORKeyStream(dst, src)
}

// refSIVSeal encrypts and authenticates plaintext with AES-SIV-CMAC-256
// under key, binding the associated-data components (for the RFC 5116
// nonce-based interface: the AD first, the nonce last). The result is
// the 16-byte synthetic IV followed by the ciphertext.
func refSIVSeal(key, plaintext []byte, ad ...[]byte) ([]byte, error) {
	s2vBlock, ctrBlock, err := refSIVCiphers(key)
	if err != nil {
		return nil, err
	}
	k1, k2 := refCMACKeys(s2vBlock)
	comps := append(append([][]byte(nil), ad...), plaintext)
	v := refS2V(s2vBlock, k1, k2, comps...)
	out := make([]byte, 16+len(plaintext))
	copy(out, v[:])
	refSIVCTR(ctrBlock, v, out[16:], plaintext)
	return out, nil
}

// refSIVOpen verifies and decrypts a refSIVSeal output. It returns
// errAuthFailed when the tag does not match.
func refSIVOpen(key, sealed []byte, ad ...[]byte) ([]byte, error) {
	if len(sealed) < 16 {
		return nil, errAuthFailed
	}
	s2vBlock, ctrBlock, err := refSIVCiphers(key)
	if err != nil {
		return nil, err
	}
	var v [16]byte
	copy(v[:], sealed[:16])
	plaintext := make([]byte, len(sealed)-16)
	refSIVCTR(ctrBlock, v, plaintext, sealed[16:])
	k1, k2 := refCMACKeys(s2vBlock)
	comps := append(append([][]byte(nil), ad...), plaintext)
	t := refS2V(s2vBlock, k1, k2, comps...)
	if subtle.ConstantTimeCompare(t[:], v[:]) != 1 {
		return nil, errAuthFailed
	}
	return plaintext, nil
}

// sivSeal and sivOpen put the production core behind the call shape
// the reference has, so siv_test.go's RFC 5297 vectors and the
// differential targets drive both the same way.
func sivSeal(key, plaintext []byte, ad ...[]byte) ([]byte, error) {
	k, err := newSIVKey(key)
	if err != nil {
		return nil, err
	}
	return k.seal(new(scratch), nil, plaintext, ad...), nil
}

func sivOpen(key, sealed []byte, ad ...[]byte) ([]byte, error) {
	k, err := newSIVKey(key)
	if err != nil {
		return nil, err
	}
	pt, err := k.open(new(scratch), nil, sealed, ad...)
	if err != nil {
		return nil, err
	}
	return pt, nil
}
