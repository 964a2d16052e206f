#include "textflag.h"

// The AES-NI kernel behind aes_amd64.go: AES-128 encryption only, which
// is all CMAC and CTR use. Round keys are the 11 16-byte words of a
// schedule expandKey128 wrote, in encryption order.

// func cpuHasAESNI() bool
TEXT ·cpuHasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX // CPUID.1:ECX.AESNI[bit 25]
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// EXPAND derives the next round key in X0 from the previous one, using
// the AESKEYGENASSIST word for round constant rcon, and stores it at
// off(BX). X4's low word must be zero on entry; it is again on exit.
#define EXPAND(rcon, off) \
	AESKEYGENASSIST rcon, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	SHUFPS          $0x10, X0, X4; \
	PXOR            X4, X0; \
	SHUFPS          $0x8c, X0, X4; \
	PXOR            X4, X0; \
	PXOR            X1, X0; \
	MOVUPS          X0, off(BX)

// func expandKey128(key *[16]byte, rk *[176]byte)
TEXT ·expandKey128(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   rk+8(FP), BX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	PXOR   X4, X4
	EXPAND($0x01, 16)
	EXPAND($0x02, 32)
	EXPAND($0x04, 48)
	EXPAND($0x08, 64)
	EXPAND($0x10, 80)
	EXPAND($0x20, 96)
	EXPAND($0x40, 112)
	EXPAND($0x80, 128)
	EXPAND($0x1b, 144)
	EXPAND($0x36, 160)
	RET

// func cmacBlocks(rk *[176]byte, x *[16]byte, src []byte)
TEXT ·cmacBlocks(SB), NOSPLIT, $0-40
	MOVQ   rk+0(FP), AX
	MOVQ   x+8(FP), BX
	MOVQ   src_base+16(FP), CX
	MOVQ   src_len+24(FP), DX
	SHRQ   $4, DX
	MOVUPS (BX), X0
	JZ     done
	MOVUPS 0(AX), X1
	MOVUPS 16(AX), X2
	MOVUPS 32(AX), X3
	MOVUPS 48(AX), X4
	MOVUPS 64(AX), X5
	MOVUPS 80(AX), X6
	MOVUPS 96(AX), X7
	MOVUPS 112(AX), X8
	MOVUPS 128(AX), X9
	MOVUPS 144(AX), X10
	MOVUPS 160(AX), X11

loop:
	MOVUPS     (CX), X12
	PXOR       X12, X0
	PXOR       X1, X0
	AESENC     X2, X0
	AESENC     X3, X0
	AESENC     X4, X0
	AESENC     X5, X0
	AESENC     X6, X0
	AESENC     X7, X0
	AESENC     X8, X0
	AESENC     X9, X0
	AESENC     X10, X0
	AESENCLAST X11, X0
	ADDQ       $16, CX
	DECQ       DX
	JNZ        loop

done:
	MOVUPS X0, (BX)
	RET

// ROUND4 runs round key off(AX) through all four blocks with op.
#define ROUND4(op, off) \
	MOVUPS off(AX), X4; \
	op     X4, X0; \
	op     X4, X1; \
	op     X4, X2; \
	op     X4, X3

// func encrypt4(rk *[176]byte, dst *[64]byte, src *[64]byte)
TEXT ·encrypt4(SB), NOSPLIT, $0-24
	MOVQ   rk+0(FP), AX
	MOVQ   dst+8(FP), BX
	MOVQ   src+16(FP), CX
	MOVUPS 0(CX), X0
	MOVUPS 16(CX), X1
	MOVUPS 32(CX), X2
	MOVUPS 48(CX), X3
	ROUND4(PXOR, 0)
	ROUND4(AESENC, 16)
	ROUND4(AESENC, 32)
	ROUND4(AESENC, 48)
	ROUND4(AESENC, 64)
	ROUND4(AESENC, 80)
	ROUND4(AESENC, 96)
	ROUND4(AESENC, 112)
	ROUND4(AESENC, 128)
	ROUND4(AESENC, 144)
	ROUND4(AESENCLAST, 160)
	MOVUPS X0, 0(BX)
	MOVUPS X1, 16(BX)
	MOVUPS X2, 32(BX)
	MOVUPS X3, 48(BX)
	RET
