package nts

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"sync"
)

// Cookie wire layout (server-opaque to clients, defined here because
// both minting and opening happen server-side):
//
//	epoch   (4, big-endian)  — selects the master key that sealed it
//	sealed  (100)            — AES-SIV(master, plaintext, AD epoch):
//	    siv tag (16)
//	    ct      (84) of: aeadID(2) || keyLen(2) || c2s(32) || s2c(32) || pad(16)
//
// The 16 bytes of random pad make every cookie ciphertext distinct
// even for identical association keys, so re-supplied cookies are
// unlinkable on the wire. Total 104 bytes — a multiple of 4, so
// cookie extension fields never need implicit padding and packets
// re-encode byte-identically (which the authenticator's AD
// computation relies on).
const (
	cookieLen      = 104
	cookiePlainLen = 2 + 2 + SIVKeyLen + SIVKeyLen + cookiePadLen
	cookiePadLen   = 16
	cookieEpochLen = 4
)

var (
	// errCookieEpoch is returned when a cookie references a key epoch
	// that has rotated out of the ring (or never existed).
	errCookieEpoch = errors.New("nts: cookie key epoch not in ring")
	// errCookieFormat is returned for cookies of the wrong shape.
	errCookieFormat = errors.New("nts: malformed cookie")
)

// KeyRing holds the server's cookie-sealing master keys, indexed by a
// monotonically increasing epoch. Rotate mints a fresh master key and
// retires the oldest once more than Depth past epochs are held, so a
// cookie stays decryptable for Depth rotations after it was minted.
type KeyRing struct {
	mu    sync.RWMutex
	depth int
	next  uint32
	keys  map[uint32]masterKey
}

// masterKey is one epoch's key: the raw bytes Save persists and their
// expansion, built once when the epoch enters the ring (Rotate,
// loadKeyRing) and dropped with it, so no cookie operation expands a
// master key.
type masterKey struct {
	raw []byte
	siv *sivKey
}

func newMasterKey(raw []byte) (masterKey, error) {
	siv, err := newSIVKey(raw)
	return masterKey{raw: raw, siv: siv}, err
}

// NewKeyRing creates a ring that keeps the current master key plus
// depth retired ones. depth < 1 is clamped to 1.
func NewKeyRing(depth int) (*KeyRing, error) {
	if depth < 1 {
		depth = 1
	}
	r := &KeyRing{depth: depth, keys: make(map[uint32]masterKey)}
	if err := r.Rotate(); err != nil {
		return nil, err
	}
	return r, nil
}

// Rotate introduces a new current epoch with a fresh random master
// key and drops epochs older than the retention window.
func (r *KeyRing) Rotate() error {
	raw := make([]byte, SIVKeyLen)
	if _, err := rand.Read(raw); err != nil {
		return err
	}
	key, err := newMasterKey(raw)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch := r.next
	r.next++
	r.keys[epoch] = key
	for e := range r.keys {
		if epoch-e > uint32(r.depth) {
			delete(r.keys, e)
		}
	}
	return nil
}

// Epoch returns the current (most recently rotated) epoch.
func (r *KeyRing) Epoch() uint32 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.next - 1
}

// SealCookie mints a cookie binding the association keys under the
// current epoch's master key.
func (r *KeyRing) SealCookie(aeadID uint16, c2s, s2c []byte) ([]byte, error) {
	if len(c2s) != SIVKeyLen || len(s2c) != SIVKeyLen {
		return nil, errors.New("nts: association keys must be 32 bytes")
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	pad := sc.rnd[:cookiePadLen]
	if _, err := rand.Read(pad); err != nil {
		return nil, err
	}
	return r.sealCookie(sc, make([]byte, 0, cookieLen), aeadID, c2s, s2c, pad), nil
}

// sealCookie appends to dst a cookie of the 32-byte association keys
// and the cookiePadLen bytes of fresh randomness in pad.
func (r *KeyRing) sealCookie(sc *scratch, dst []byte, aeadID uint16, c2s, s2c, pad []byte) []byte {
	plain := sc.cookie[:]
	binary.BigEndian.PutUint16(plain[0:], aeadID)
	binary.BigEndian.PutUint16(plain[2:], SIVKeyLen)
	copy(plain[4:], c2s)
	copy(plain[4+SIVKeyLen:], s2c)
	copy(plain[4+2*SIVKeyLen:], pad)

	r.mu.RLock()
	epoch := r.next - 1
	master := r.keys[epoch].siv
	r.mu.RUnlock()
	dst = binary.BigEndian.AppendUint32(dst, epoch)
	return master.seal(sc, dst, plain, dst[len(dst)-cookieEpochLen:])
}

// OpenCookie authenticates and decrypts a cookie, returning the AEAD
// algorithm and association keys it carries. Cookies sealed under an
// epoch that has rotated out fail with errCookieEpoch.
func (r *KeyRing) OpenCookie(cookie []byte) (aeadID uint16, c2s, s2c []byte, err error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return r.openCookie(sc, make([]byte, 0, cookiePlainLen), cookie)
}

// openCookie is OpenCookie with the plaintext — which the returned
// keys alias — appended to dst.
func (r *KeyRing) openCookie(sc *scratch, dst, cookie []byte) (aeadID uint16, c2s, s2c []byte, err error) {
	if len(cookie) != cookieLen {
		return 0, nil, nil, errCookieFormat
	}
	epoch := binary.BigEndian.Uint32(cookie[:cookieEpochLen])
	r.mu.RLock()
	master, ok := r.keys[epoch]
	r.mu.RUnlock()
	if !ok {
		return 0, nil, nil, errCookieEpoch
	}
	n := len(dst)
	dst, err = master.siv.open(sc, dst, cookie[cookieEpochLen:], cookie[:cookieEpochLen])
	if err != nil {
		return 0, nil, nil, err
	}
	plain := dst[n:]
	if len(plain) != cookiePlainLen {
		return 0, nil, nil, errCookieFormat
	}
	aeadID = binary.BigEndian.Uint16(plain[0:2])
	if binary.BigEndian.Uint16(plain[2:4]) != SIVKeyLen {
		return 0, nil, nil, errCookieFormat
	}
	c2s = plain[4 : 4+SIVKeyLen]
	s2c = plain[4+SIVKeyLen : 4+2*SIVKeyLen]
	return aeadID, c2s, s2c, nil
}
