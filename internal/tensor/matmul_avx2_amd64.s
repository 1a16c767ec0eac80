//go:build !purego

#include "textflag.h"

// AVX2 matmul kernels. See matmul_avx2_amd64.go for the contract and
// DESIGN §11 for why they are bit-identical to the scalar Go kernels:
// every output column is one vector lane, and each lane runs the scalar
// chain t := b*av; acc += t with separate VMULPD and VADDPD (never FMA),
// over ascending k, with the same zero-term skips.

// tailmask<> is sixteen all-ones quadwords followed by sixteen zeros.
// Reading four YMM words at tailmask<> + (16-r)*8 yields lane masks for
// the first r columns of a 16-column strip.
DATA tailmask<>+0x00(SB)/8, $-1
DATA tailmask<>+0x08(SB)/8, $-1
DATA tailmask<>+0x10(SB)/8, $-1
DATA tailmask<>+0x18(SB)/8, $-1
DATA tailmask<>+0x20(SB)/8, $-1
DATA tailmask<>+0x28(SB)/8, $-1
DATA tailmask<>+0x30(SB)/8, $-1
DATA tailmask<>+0x38(SB)/8, $-1
DATA tailmask<>+0x40(SB)/8, $-1
DATA tailmask<>+0x48(SB)/8, $-1
DATA tailmask<>+0x50(SB)/8, $-1
DATA tailmask<>+0x58(SB)/8, $-1
DATA tailmask<>+0x60(SB)/8, $-1
DATA tailmask<>+0x68(SB)/8, $-1
DATA tailmask<>+0x70(SB)/8, $-1
DATA tailmask<>+0x78(SB)/8, $-1
DATA tailmask<>+0x80(SB)/8, $0
DATA tailmask<>+0x88(SB)/8, $0
DATA tailmask<>+0x90(SB)/8, $0
DATA tailmask<>+0x98(SB)/8, $0
DATA tailmask<>+0xa0(SB)/8, $0
DATA tailmask<>+0xa8(SB)/8, $0
DATA tailmask<>+0xb0(SB)/8, $0
DATA tailmask<>+0xb8(SB)/8, $0
DATA tailmask<>+0xc0(SB)/8, $0
DATA tailmask<>+0xc8(SB)/8, $0
DATA tailmask<>+0xd0(SB)/8, $0
DATA tailmask<>+0xd8(SB)/8, $0
DATA tailmask<>+0xe0(SB)/8, $0
DATA tailmask<>+0xe8(SB)/8, $0
DATA tailmask<>+0xf0(SB)/8, $0
DATA tailmask<>+0xf8(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $256

// Register use in gemmAVX2:
//   DI  dst row          SI  a row            R8  skip flag
//   R9  columns left     R10 dst strip        R11 b strip
//   AX  a(i,p) walker    DX  b row p walker   CX  k counter
//   R12 a k-stride (B)   R13 b k-stride (B)   R14 vs (B), BX 3*vs (B)
//   Y0-Y3 accumulators   Y4 broadcast a(i,p)  Y5-Y7, Y12 products
//   Y8-Y11 tail lane masks                    X15 zero

// Products keep the compiled Go kernels' operand order (b is the first
// source of the multiply) so even NaN payloads match.
#define PROD(src, dst) VMOVUPD src, dst; VMULPD Y4, dst, dst
#define MPROD(src, mask, dst) VMASKMOVPD src, mask, dst; VMULPD Y4, dst, dst

// Zero-skip forms add as acc = t + acc, the dot form as acc = acc + t,
// again mirroring the Go kernels.
#define STRIP4_SKIP \
	PROD((DX), Y5); VADDPD Y0, Y5, Y0; \
	PROD((DX)(R14*1), Y6); VADDPD Y1, Y6, Y1; \
	PROD((DX)(R14*2), Y7); VADDPD Y2, Y7, Y2; \
	PROD((DX)(BX*1), Y12); VADDPD Y3, Y12, Y3

#define STRIP4_DOT \
	PROD((DX), Y5); VADDPD Y5, Y0, Y0; \
	PROD((DX)(R14*1), Y6); VADDPD Y6, Y1, Y1; \
	PROD((DX)(R14*2), Y7); VADDPD Y7, Y2, Y2; \
	PROD((DX)(BX*1), Y12); VADDPD Y12, Y3, Y3

#define TAIL4_SKIP \
	MPROD((DX), Y8, Y5); VADDPD Y0, Y5, Y0; \
	MPROD((DX)(R14*1), Y9, Y6); VADDPD Y1, Y6, Y1; \
	MPROD((DX)(R14*2), Y10, Y7); VADDPD Y2, Y7, Y2; \
	MPROD((DX)(BX*1), Y11, Y12); VADDPD Y3, Y12, Y3

#define TAIL4_DOT \
	MPROD((DX), Y8, Y5); VADDPD Y5, Y0, Y0; \
	MPROD((DX)(R14*1), Y9, Y6); VADDPD Y6, Y1, Y1; \
	MPROD((DX)(R14*2), Y10, Y7); VADDPD Y7, Y2, Y2; \
	MPROD((DX)(BX*1), Y11, Y12); VADDPD Y12, Y3, Y3

// Broadcasts a(i,p) into Y4 and jumps to skip when it is ±0. NaN compares
// unordered (parity set) and is multiplied through, as in the Go kernels.
#define LOADA_SKIPZERO(skip) \
	VBROADCASTSD (AX), Y4; \
	VUCOMISD X15, X4; \
	JPS 2(PC); \
	JEQ skip

#define NEXTK \
	ADDQ R12, AX; \
	ADDQ R13, DX; \
	DECQ CX

// func gemmAVX2(dst, a, b *float64, m, k, n, ldd, lda, sa, ldb, vs int, skip bool)
TEXT ·gemmAVX2(SB), NOSPLIT, $0-89
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    sa+64(FP), R12
	SHLQ    $3, R12
	MOVQ    ldb+72(FP), R13
	SHLQ    $3, R13
	MOVQ    vs+80(FP), R14
	SHLQ    $3, R14
	LEAQ    (R14)(R14*2), BX
	MOVBQZX skip+88(FP), R8
	VXORPD  X15, X15, X15
	CMPQ    m+24(FP), $0
	JLE     done
	CMPQ    k+32(FP), $0
	JLE     done

row:
	MOVQ n+40(FP), R9
	MOVQ DI, R10
	MOVQ b+16(FP), R11

strip:
	CMPQ    R9, $16
	JLT     tail
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	MOVQ    SI, AX
	MOVQ    R11, DX
	MOVQ    k+32(FP), CX
	TESTQ   R8, R8
	JZ      stripdot

stripskip:
	LOADA_SKIPZERO(stripskipnext)
	STRIP4_SKIP

stripskipnext:
	NEXTK
	JNZ stripskip
	JMP stripstore

stripdot:
	VBROADCASTSD (AX), Y4
	STRIP4_DOT
	NEXTK
	JNZ          stripdot

stripstore:
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	ADDQ    $128, R10
	LEAQ    (R11)(R14*4), R11
	SUBQ    $16, R9
	JMP     strip

tail:
	TESTQ      R9, R9
	JZ         nextrow
	LEAQ       tailmask<>(SB), AX
	MOVQ       $16, CX
	SUBQ       R9, CX
	LEAQ       (AX)(CX*8), AX
	VMOVUPD    (AX), Y8
	VMOVUPD    32(AX), Y9
	VMOVUPD    64(AX), Y10
	VMOVUPD    96(AX), Y11
	VMASKMOVPD (R10), Y8, Y0
	VMASKMOVPD 32(R10), Y9, Y1
	VMASKMOVPD 64(R10), Y10, Y2
	VMASKMOVPD 96(R10), Y11, Y3
	MOVQ       SI, AX
	MOVQ       R11, DX
	MOVQ       k+32(FP), CX
	TESTQ      R8, R8
	JZ         taildot

tailskip:
	LOADA_SKIPZERO(tailskipnext)
	TAIL4_SKIP

tailskipnext:
	NEXTK
	JNZ tailskip
	JMP tailstore

taildot:
	VBROADCASTSD (AX), Y4
	TAIL4_DOT
	NEXTK
	JNZ          taildot

tailstore:
	VMASKMOVPD Y0, Y8, (R10)
	VMASKMOVPD Y1, Y9, 32(R10)
	VMASKMOVPD Y2, Y10, 64(R10)
	VMASKMOVPD Y3, Y11, 96(R10)

nextrow:
	MOVQ ldd+48(FP), AX
	LEAQ (DI)(AX*8), DI
	MOVQ lda+56(FP), AX
	LEAQ (SI)(AX*8), SI
	DECQ m+24(FP)
	JNZ  row

done:
	VZEROUPPER
	RET

// func packPanelsAVX2(dst, b *float64, panels, quads, ldb, pstride int)
TEXT ·packPanelsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ panels+16(FP), R8
	MOVQ ldb+32(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	MOVQ pstride+40(FP), R11
	SHLQ $3, R11

panel:
	MOVQ quads+24(FP), CX
	MOVQ SI, AX
	MOVQ DI, DX

quad:
	// Rows j..j+3, columns p..p+3 of b, transposed so that each output
	// word holds column p of all four rows.
	VMOVUPD    (AX), Y0
	VMOVUPD    (AX)(R9*1), Y1
	VMOVUPD    (AX)(R9*2), Y2
	VMOVUPD    (AX)(R10*1), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (DX)
	VMOVUPD    Y1, 32(DX)
	VMOVUPD    Y2, 64(DX)
	VMOVUPD    Y3, 96(DX)
	ADDQ       $32, AX
	ADDQ       $128, DX
	DECQ       CX
	JNZ        quad

	LEAQ (SI)(R9*4), SI
	ADDQ R11, DI
	DECQ R8
	JNZ  panel
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
