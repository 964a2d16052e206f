//go:build !amd64

package nts

// Off amd64 useAESNI stays false, so aesKey never calls the kernel.

func expandKey128(key *[16]byte, rk *[176]byte)         { panic("nts: no AES-NI kernel") }
func cmacBlocks(rk *[176]byte, x *[16]byte, src []byte) { panic("nts: no AES-NI kernel") }
func encrypt4(rk *[176]byte, dst, src *[64]byte)        { panic("nts: no AES-NI kernel") }
