//go:build amd64 && !race

#include "textflag.h"

// AVX2 plane-form butterflies. A YMM register holds two complex128
// values [re0, im0, re1, im1], columns t and t+1 of one row. Every
// operation is the one the Go body performs on each element, in the
// same order (vector_amd64.go); no FMA is used, as Go on amd64 never
// fuses a multiply and an add.

// Sign-bit masks: NEGIM flips the imaginary parts, NEGRE the real parts.
DATA negIm<>+0x00(SB)/8, $0x0000000000000000
DATA negIm<>+0x08(SB)/8, $0x8000000000000000
DATA negIm<>+0x10(SB)/8, $0x0000000000000000
DATA negIm<>+0x18(SB)/8, $0x8000000000000000
GLOBL negIm<>(SB), RODATA|NOPTR, $32

DATA negRe<>+0x00(SB)/8, $0x8000000000000000
DATA negRe<>+0x08(SB)/8, $0x0000000000000000
DATA negRe<>+0x10(SB)/8, $0x8000000000000000
DATA negRe<>+0x18(SB)/8, $0x0000000000000000
GLOBL negRe<>(SB), RODATA|NOPTR, $32

DATA half<>+0x00(SB)/8, $0x3fe0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $8

// √2/2, the real part of W_8, as tw8's constant sqrt1_2 rounds it.
DATA sqrt1_2<>+0x00(SB)/8, $0x3fe6a09e667f3bcd
GLOBL sqrt1_2<>(SB), RODATA|NOPTR, $8

// CMUL sets x to x·(wr + i·wi), with wr and wi broadcast in registers
// of those names and t as scratch: (xr·wr − xi·wi, xi·wr + xr·wi), the
// two products and the subtraction or addition Go's complex multiply
// performs. A constant operand keeps its ×0 terms.
#define CMUL(x, wr, wi, t) \
	VPERMILPD $5, x, t; \
	VMULPD    wr, x, x; \
	VMULPD    wi, t, t; \
	VADDSUBPD t, x, x

// BF4 is bf4 on a, b, c, d with t, u as scratch and the ±i sign mask in
// m: x0 lands in c, x1 in d, x2 in t and x3 in a; b and u are free.
#define BF4(a, b, c, d, t, u, m) \
	VADDPD    c, a, t; \
	VSUBPD    c, a, a; \
	VADDPD    d, b, u; \
	VSUBPD    d, b, b; \
	VPERMILPD $5, b, b; \
	VXORPD    m, b, b; \
	VADDPD    u, t, c; \
	VSUBPD    u, t, t; \
	VADDPD    b, a, d; \
	VSUBPD    b, a, a

// func cpuAVX2() bool
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	XORL CX, CX
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// OSXSAVE (bit 27) and AVX (bit 28).
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// The OS saves the XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	// AVX2 (leaf 7, EBX bit 5).
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func rows2AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w, n int, tw *complex128)
TEXT ·rows2AVX2(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ ostep+8(FP), R10
	SHLQ $4, R10
	MOVQ orow+16(FP), R12
	SHLQ $4, R12
	MOVQ in+24(FP), SI
	MOVQ istep+32(FP), R8
	SHLQ $4, R8
	MOVQ m+40(FP), CX
	MOVQ w+48(FP), R13
	SHLQ $4, R13
	MOVQ n+56(FP), BX
	SHLQ $4, BX
	MOVQ tw+64(FP), DX

row2:
	VBROADCASTSD 0(DX), Y6
	VBROADCASTSD 8(DX), Y7
	MOVQ         BX, AX

col2:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	CMUL(Y1, Y6, Y7, Y4)
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y0
	VMOVUPD Y2, (DI)
	VMOVUPD Y0, (DI)(R10*1)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, AX
	JNE     col2
	SUBQ    BX, SI
	ADDQ    R13, SI
	SUBQ    BX, DI
	ADDQ    R12, DI
	ADDQ    $16, DX
	DECQ    CX
	JNE     row2
	VZEROUPPER
	RET

// func rows3AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w, n int, tw *complex128, negIm float64)
TEXT ·rows3AVX2(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ ostep+8(FP), R10
	SHLQ $4, R10
	MOVQ orow+16(FP), R12
	SHLQ $4, R12
	MOVQ in+24(FP), SI
	MOVQ istep+32(FP), R8
	SHLQ $4, R8
	MOVQ m+40(FP), CX
	MOVQ w+48(FP), R13
	SHLQ $4, R13
	MOVQ n+56(FP), BX
	SHLQ $4, BX
	MOVQ tw+64(FP), DX
	VBROADCASTSD half<>(SB), Y9
	VXORPD       Y10, Y10, Y10
	VBROADCASTSD negIm+72(FP), Y11

row3:
	VBROADCASTSD 0(DX), Y5
	VBROADCASTSD 8(DX), Y6
	VBROADCASTSD 16(DX), Y7
	VBROADCASTSD 24(DX), Y8
	MOVQ         BX, AX

col3:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	CMUL(Y1, Y5, Y6, Y4)
	CMUL(Y2, Y7, Y8, Y4)

	// bf3: sum, diff, re = a − (0.5 + 0i)·sum, rot = (0 − i·im)·diff.
	VADDPD  Y2, Y1, Y3
	VSUBPD  Y2, Y1, Y1
	VMOVAPD Y3, Y2
	CMUL(Y2, Y9, Y10, Y4)
	VSUBPD  Y2, Y0, Y2
	CMUL(Y1, Y10, Y11, Y4)
	VADDPD  Y3, Y0, Y0
	VADDPD  Y1, Y2, Y3
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y0, (DI)
	VMOVUPD Y3, (DI)(R10*1)
	VMOVUPD Y2, (DI)(R10*2)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, AX
	JNE     col3
	SUBQ    BX, SI
	ADDQ    R13, SI
	SUBQ    BX, DI
	ADDQ    R12, DI
	ADDQ    $32, DX
	DECQ    CX
	JNE     row3
	VZEROUPPER
	RET

// func rows4AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w, n int, tw *complex128, fwd bool, sc complex128, scaled bool)
TEXT ·rows4AVX2(SB), NOSPLIT, $0-97
	MOVQ out+0(FP), DI
	MOVQ ostep+8(FP), R10
	SHLQ $4, R10
	LEAQ (R10)(R10*2), R11
	MOVQ orow+16(FP), R12
	SHLQ $4, R12
	MOVQ in+24(FP), SI
	MOVQ istep+32(FP), R8
	SHLQ $4, R8
	LEAQ (R8)(R8*2), R9
	MOVQ m+40(FP), CX
	MOVQ w+48(FP), R13
	SHLQ $4, R13
	MOVQ n+56(FP), BX
	SHLQ $4, BX
	MOVQ tw+64(FP), DX

	// −i·(b−d) forward flips the new imaginary part, +i·(b−d) the real.
	VMOVUPD negIm<>(SB), Y12
	CMPB    fwd+72(FP), $0
	JNE     scale4
	VMOVUPD negRe<>(SB), Y12

scale4:
	VBROADCASTSD sc_real+80(FP), Y13
	VBROADCASTSD sc_imag+88(FP), Y14

row4:
	VBROADCASTSD 0(DX), Y6
	VBROADCASTSD 8(DX), Y7
	VBROADCASTSD 16(DX), Y8
	VBROADCASTSD 24(DX), Y9
	VBROADCASTSD 32(DX), Y10
	VBROADCASTSD 40(DX), Y11
	MOVQ         BX, AX

col4:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (SI)(R9*1), Y3
	CMUL(Y1, Y6, Y7, Y4)
	CMUL(Y2, Y8, Y9, Y4)
	CMUL(Y3, Y10, Y11, Y4)
	BF4(Y0, Y1, Y2, Y3, Y4, Y5, Y12)
	CMPB    scaled+96(FP), $0
	JEQ     store4
	CMUL(Y2, Y13, Y14, Y1)
	CMUL(Y3, Y13, Y14, Y1)
	CMUL(Y4, Y13, Y14, Y1)
	CMUL(Y0, Y13, Y14, Y1)

store4:
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, (DI)(R10*1)
	VMOVUPD Y4, (DI)(R10*2)
	VMOVUPD Y0, (DI)(R11*1)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, AX
	JNE     col4
	SUBQ    BX, SI
	ADDQ    R13, SI
	SUBQ    BX, DI
	ADDQ    R12, DI
	ADDQ    $48, DX
	DECQ    CX
	JNE     row4
	VZEROUPPER
	RET

// func rows4leafAVX2(out *complex128, w int, x *complex128, s, n int, fwd bool)
TEXT ·rows4leafAVX2(SB), NOSPLIT, $0-41
	MOVQ out+0(FP), DI
	MOVQ w+8(FP), R12
	SHLQ $4, R12
	LEAQ (R12)(R12*2), R13
	MOVQ x+16(FP), SI
	MOVQ s+24(FP), R8
	SHLQ $4, R8
	LEAQ (R8)(R8*2), R9
	MOVQ n+32(FP), AX
	SHLQ $4, AX
	VMOVUPD negIm<>(SB), Y12
	CMPB    fwd+40(FP), $0
	JNE     col4leaf
	VMOVUPD negRe<>(SB), Y12

col4leaf:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (SI)(R9*1), Y3
	BF4(Y0, Y1, Y2, Y3, Y4, Y5, Y12)
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, (DI)(R12*1)
	VMOVUPD Y4, (DI)(R12*2)
	VMOVUPD Y0, (DI)(R13*1)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, AX
	JNE     col4leaf
	VZEROUPPER
	RET

// func rows8leafAVX2(out *complex128, w int, x *complex128, s, n int, fwd bool, sgn float64)
TEXT ·rows8leafAVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ w+8(FP), R12
	SHLQ $4, R12
	LEAQ (R12)(R12*2), R13
	LEAQ (R12)(R12*4), AX
	LEAQ (R13)(R12*4), BX
	MOVQ x+16(FP), SI
	MOVQ s+24(FP), R8
	SHLQ $4, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	MOVQ n+32(FP), CX
	SHLQ $4, CX
	VMOVUPD negIm<>(SB), Y12
	CMPB    fwd+40(FP), $0
	JNE     consts8
	VMOVUPD negRe<>(SB), Y12

consts8:
	// Y13 = √2/2, Y14 = 0, Y15 = [sgn, −sgn] per complex.
	VBROADCASTSD sqrt1_2<>(SB), Y13
	VXORPD       Y14, Y14, Y14
	VBROADCASTSD sgn+48(FP), Y15
	VXORPD       negIm<>(SB), Y15, Y15

col8leaf:
	// e = bf4(x0, x2, x4, x6): e0 Y2, e1 Y3, e2 Y4, e3 Y0.
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*2), Y1
	VMOVUPD (SI)(R8*4), Y2
	VMOVUPD (SI)(R9*2), Y3
	BF4(Y0, Y1, Y2, Y3, Y4, Y5, Y12)

	// o = bf4(x1, x3, x5, x7): o0 Y8, o1 Y9, o2 Y10, o3 Y6.
	VMOVUPD (SI)(R8*1), Y6
	VMOVUPD (SI)(R9*1), Y7
	VMOVUPD (SI)(R10*1), Y8
	VMOVUPD (SI)(R11*1), Y9
	BF4(Y6, Y7, Y8, Y9, Y10, Y11, Y12)

	// tw8: t2 = (sgn·o2i, −sgn·o2r);
	// t1 = (√2/2 + 0i)·(o1r + sgn·o1i, o1i − sgn·o1r);
	// t3 = (√2/2 + 0i)·(sgn·o3i − o3r, −sgn·o3r − o3i).
	VPERMILPD $5, Y10, Y10
	VMULPD    Y15, Y10, Y10
	VPERMILPD $5, Y9, Y7
	VMULPD    Y15, Y7, Y7
	VADDPD    Y7, Y9, Y9
	CMUL(Y9, Y13, Y14, Y7)
	VPERMILPD $5, Y6, Y7
	VMULPD    Y15, Y7, Y7
	VSUBPD    Y6, Y7, Y6
	CMUL(Y6, Y13, Y14, Y7)

	VADDPD  Y8, Y2, Y1
	VSUBPD  Y8, Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, (DI)(R12*4)
	VADDPD  Y9, Y3, Y1
	VSUBPD  Y9, Y3, Y3
	VMOVUPD Y1, (DI)(R12*1)
	VMOVUPD Y3, (DI)(AX*1)
	VADDPD  Y10, Y4, Y1
	VSUBPD  Y10, Y4, Y4
	VMOVUPD Y1, (DI)(R12*2)
	VMOVUPD Y4, (DI)(R13*2)
	VADDPD  Y6, Y0, Y1
	VSUBPD  Y6, Y0, Y0
	VMOVUPD Y1, (DI)(R13*1)
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNE     col8leaf
	VZEROUPPER
	RET
