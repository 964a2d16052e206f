package nts

import (
	"crypto/aes"
	"crypto/cipher"
)

// useAESNI selects the AES-NI kernel (aes_amd64.s) over crypto/aes. It
// depends only on the platform and the CPU: init sets it, and only
// tests change it afterwards, to run both paths.
var useAESNI bool

// aesKey is one expanded AES-128 key, held by value so that expanding
// it allocates nothing. Under the kernel it is the round keys; on the
// fallback it is the crypto/aes cipher, which is allocated.
type aesKey struct {
	rk  [176]byte
	blk cipher.Block
}

// expand (re)builds a from a 16-byte key.
func (a *aesKey) expand(key []byte) error {
	if useAESNI {
		expandKey128((*[16]byte)(key), &a.rk)
		return nil
	}
	var err error
	a.blk, err = aes.NewCipher(key)
	return err
}

// cmacBlocks runs the CBC-MAC chain x = E(x ⊕ block) over the whole
// 16-byte blocks of src. x is handed to a cipher.Block on the fallback,
// so it must not be a local (see scratch).
func (a *aesKey) cmacBlocks(x *[16]byte, src []byte) {
	if useAESNI {
		cmacBlocks(&a.rk, x, src)
		return
	}
	for ; len(src) >= 16; src = src[16:] {
		xor16(x, src)
		a.blk.Encrypt(x[:], x[:])
	}
}

// encrypt4 encrypts the four blocks of src into dst. Neither may be a
// local, for the same reason.
func (a *aesKey) encrypt4(dst, src *[64]byte) {
	if useAESNI {
		encrypt4(&a.rk, dst, src)
		return
	}
	for i := 0; i < 64; i += 16 {
		a.blk.Encrypt(dst[i:i+16], src[i:i+16])
	}
}
