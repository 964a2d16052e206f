// Package nts implements the Network Time Security protection of NTP
// packets (RFC 8915): the AES-SIV-CMAC-256 AEAD (RFC 5297, on an amd64
// AES-NI kernel, or the standard library's AES primitive where there
// is none — no external dependencies),
// server cookies minted under a rotating key-epoch ring, the NTS
// extension fields on the NTP wire format, the client session with
// its unlinkable cookie jar, and the server-side request
// verification/response construction used by internal/ntpnet.
//
// The division of labour with internal/ntske: this package is
// everything after key establishment — given the per-association keys
// (c2s/s2c) and cookies, it protects and verifies packets. Package
// ntske produces those keys and cookies over TLS.
package nts

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"sync"
)

// AEADAESSIVCMAC256 is the IANA AEAD algorithm identifier of
// AES-SIV-CMAC-256, the mandatory-to-implement algorithm of RFC 8915.
const AEADAESSIVCMAC256 uint16 = 15

// SIVKeyLen is the AES-SIV-CMAC-256 key length: two AES-128 keys,
// one for S2V/CMAC and one for CTR.
const SIVKeyLen = 32

// SIVOverhead is the length a seal adds to its plaintext: the 16-byte
// synthetic IV prepended to the ciphertext.
const SIVOverhead = 16

// ErrAuthFailed is returned when an AES-SIV tag does not verify:
// the packet (or cookie) was forged, corrupted or keyed differently.
var ErrAuthFailed = errors.New("nts: AEAD authentication failed")

var errSIVKeyLen = errors.New("nts: AES-SIV-CMAC-256 key must be 32 bytes")

// sivKey is an expanded AES-SIV-CMAC-256 key: both AES key schedules
// and everything S2V derives from the key alone, computed once by
// expand. It is immutable until the next expand, so any number of
// goroutines may seal and open under one sivKey, each with its own
// scratch.
type sivKey struct {
	mac    aesKey   // S2V half (first 16 key bytes)
	ctr    aesKey   // CTR half (last 16); stale after a macOnly expand
	k1, k2 [16]byte // CMAC subkeys (RFC 4493 §2.3)
	zero   [16]byte // CMAC(0¹²⁸), the value every S2V starts from
}

// zeroBlock is the all-zero block.
var zeroBlock [16]byte

// scratch is the working memory of one AEAD user. Arguments to a
// cipher.Block method (an interface call, which the crypto/aes
// fallback makes) and to crypto/rand escape to the heap, so every
// block handed to either lives here instead of in a local, next to the
// buffers a packet's AD image and inner plaintext are built in. A
// scratch serves one seal or open at a time: the serve path's is part
// of its worker's ServerRequest, everything else borrows one from
// scratchPool.
type scratch struct {
	x      [16]byte             // CMAC chaining value; the synthetic IV after s2v
	ctr    [64]byte             // four CTR counter blocks
	ks     [64]byte             // their keystream
	cookie [cookiePlainLen]byte // cookie plaintext, opened or about to be sealed
	rnd    [randLen]byte        // one reply's random draw: cookie pads, then the nonce
	ad     []byte               // wire image the authenticator covers
	pt     []byte               // authenticator plaintext: the inner extension fields
}

// randLen is the most randomness one protected reply needs.
const randLen = MaxCookiesPerReply*cookiePadLen + nonceLen

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// newSIVKey expands a 32-byte key into a fresh sivKey.
func newSIVKey(key []byte) (*sivKey, error) {
	k := new(sivKey)
	if err := k.expand(key, false); err != nil {
		return nil, err
	}
	return k, nil
}

// expand (re)builds k from a 32-byte key in place. With macOnly the
// CTR half is left as it was: such a key seals and opens only empty
// plaintexts, which is all a request authenticator normally carries.
func (k *sivKey) expand(key []byte, macOnly bool) error {
	if len(key) != SIVKeyLen {
		return errSIVKeyLen
	}
	if err := k.mac.expand(key[:16]); err != nil {
		return err
	}
	if !macOnly {
		if err := k.ctr.expand(key[16:]); err != nil {
			return err
		}
	}
	// k's own fields are the chaining values (see scratch).
	k.k1 = [16]byte{}
	k.mac.cmacBlocks(&k.k1, zeroBlock[:])
	dbl(&k.k1)
	k.k2 = k.k1
	dbl(&k.k2)
	// CMAC of one all-zero block: its only, complete block is 0 ^ k1.
	k.zero = [16]byte{}
	k.mac.cmacBlocks(&k.zero, k.k1[:])
	return nil
}

// dbl doubles a block in GF(2^128) per RFC 5297 §2.3: left shift by
// one, conditionally XORing the primitive polynomial constant 0x87
// into the last byte when the shifted-out bit was set.
func dbl(b *[16]byte) {
	hi, lo := binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	binary.BigEndian.PutUint64(b[:8], hi<<1|lo>>63)
	binary.BigEndian.PutUint64(b[8:], lo<<1^(hi>>63)*0x87)
}

// xor16 XORs the first 16 bytes of src into dst.
func xor16(dst *[16]byte, src []byte) {
	_ = src[15]
	binary.LittleEndian.PutUint64(dst[0:], binary.LittleEndian.Uint64(dst[0:])^binary.LittleEndian.Uint64(src[0:]))
	binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(dst[8:])^binary.LittleEndian.Uint64(src[8:]))
}

// cmac leaves AES-CMAC (RFC 4493) of msg in sc.x. A non-nil xorend
// (len(msg) >= 16) is XORed into the last 16 bytes of msg as they
// stream past — S2V's T = Sn xorend D — so T is never built.
func (k *sivKey) cmac(sc *scratch, msg []byte, xorend *[16]byte) {
	sc.x = [16]byte{}
	// head is whole blocks that are neither the final one nor reached
	// by xorend; the remaining 0..31 bytes are finished in tail.
	head := 0
	if len(msg) >= 32 {
		head = (len(msg) - 16) &^ 15
	}
	k.mac.cmacBlocks(&sc.x, msg[:head])
	var tail [32]byte
	n := copy(tail[:], msg[head:])
	if xorend != nil {
		subtle.XORBytes(tail[n-16:n], tail[n-16:n], xorend[:])
	}
	last := 0
	if n > 16 {
		last = 16
	}
	subkey := &k.k1
	if n != last+16 {
		tail[n] = 0x80 // incomplete final block: pad 10*
		subkey = &k.k2
	}
	xor16((*[16]byte)(tail[last:]), subkey[:])
	k.mac.cmacBlocks(&sc.x, tail[:last+16])
}

// s2v leaves the synthetic IV in sc.x: RFC 5297 §2.4's S2V over the
// associated-data components (for the RFC 5116 nonce-based interface:
// the AD first, the nonce last) and then the plaintext.
func (k *sivKey) s2v(sc *scratch, plaintext []byte, ad [][]byte) {
	d := k.zero
	for _, a := range ad {
		dbl(&d)
		k.cmac(sc, a, nil)
		xor16(&d, sc.x[:])
	}
	if len(plaintext) >= 16 {
		k.cmac(sc, plaintext, &d)
		return
	}
	dbl(&d)
	var padded [16]byte
	padded[copy(padded[:], plaintext)] = 0x80
	xor16(&d, padded[:])
	k.cmac(sc, d[:], nil)
}

// xorKeyStream XORs buf in place with AES-CTR keyed by the CTR half,
// counting up from the synthetic IV v with its two reserved bits
// (the top bits of its last two 32-bit words) cleared (RFC 5297 §2.6),
// four blocks at a time. An empty buf never touches the CTR half.
// With its top bit clear the counter's low half cannot wrap within any
// plaintext, so the high half is constant.
func (k *sivKey) xorKeyStream(sc *scratch, v *[16]byte, buf []byte) {
	hi := binary.BigEndian.Uint64(v[:8])
	lo := binary.BigEndian.Uint64(v[8:]) &^ (1<<63 | 1<<31)
	for len(buf) > 0 {
		for i := 0; i < len(sc.ctr); i += 16 {
			binary.BigEndian.PutUint64(sc.ctr[i:], hi)
			binary.BigEndian.PutUint64(sc.ctr[i+8:], lo)
			lo++
		}
		k.ctr.encrypt4(&sc.ks, &sc.ctr)
		buf = buf[subtle.XORBytes(buf, buf, sc.ks[:]):]
	}
}

// seal appends to dst the 16-byte synthetic IV followed by the
// ciphertext of plaintext, authenticated together with the ad
// components, and returns the extended slice. plaintext must not
// overlap dst's spare capacity.
func (k *sivKey) seal(sc *scratch, dst, plaintext []byte, ad ...[]byte) []byte {
	k.s2v(sc, plaintext, ad)
	v := sc.x
	dst = append(dst, v[:]...)
	dst = append(dst, plaintext...)
	k.xorKeyStream(sc, &v, dst[len(dst)-len(plaintext):])
	return dst
}

// open verifies a seal output against the ad components and appends
// the decrypted plaintext to dst. A tag that does not match — compared
// in constant time — returns dst unextended and ErrAuthFailed.
func (k *sivKey) open(sc *scratch, dst, sealed []byte, ad ...[]byte) ([]byte, error) {
	if len(sealed) < SIVOverhead {
		return dst, ErrAuthFailed
	}
	var v [16]byte
	copy(v[:], sealed)
	n := len(dst)
	dst = append(dst, sealed[SIVOverhead:]...)
	k.xorKeyStream(sc, &v, dst[n:])
	k.s2v(sc, dst[n:], ad)
	if subtle.ConstantTimeCompare(sc.x[:], v[:]) != 1 {
		clear(dst[n:])
		return dst[:n], ErrAuthFailed
	}
	return dst, nil
}
