package nts

// The AES-NI kernel (aes_amd64.s), selected once by CPUID.

func init() { useAESNI = cpuHasAESNI() }

// cpuHasAESNI reports CPUID leaf 1's AES-NI bit.
func cpuHasAESNI() bool

// expandKey128 writes the AES-128 encryption schedule of key into rk.
//
//go:noescape
func expandKey128(key *[16]byte, rk *[176]byte)

// cmacBlocks runs the CBC-MAC chain x = E(x ⊕ block) over the whole
// 16-byte blocks of src.
//
//go:noescape
func cmacBlocks(rk *[176]byte, x *[16]byte, src []byte)

// encrypt4 encrypts four independent blocks, interleaved round by round.
//
//go:noescape
func encrypt4(rk *[176]byte, dst, src *[64]byte)
