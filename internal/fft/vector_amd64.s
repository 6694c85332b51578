//go:build amd64 && !race

#include "textflag.h"

// AVX2 plane-form butterflies and real-pass kernels. A YMM register
// holds two complex128 values [re0, im0, re1, im1], columns t and t+1
// of one row; an odd last column runs the same instructions on the XMM
// half, one complex128. Every operation is the one the Go body performs
// on each element, in the same order (vector_amd64.go); no FMA is used,
// as Go on amd64 never fuses a multiply and an add. Each kernel's
// arithmetic is a macro that takes its registers, so the pair loop
// (Y registers) and the tail (X registers) share one body.

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

DATA negHalf<>+0x00(SB)/8, $0xbfe0000000000000
GLOBL negHalf<>(SB), RODATA|NOPTR, $8

DATA one<>+0x00(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

DATA signBit<>+0x00(SB)/8, $0x8000000000000000
GLOBL signBit<>(SB), RODATA|NOPTR, $8

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

// ROWS2 is one rows2 butterfly on the column(s) at SI, stored at DI,
// with the twiddle in w6, w7.
#define ROWS2(x0, x1, x2, x4, w6, w7) \
	VMOVUPD (SI), x0; \
	VMOVUPD (SI)(R8*1), x1; \
	CMUL(x1, w6, w7, x4); \
	VADDPD  x1, x0, x2; \
	VSUBPD  x1, x0, x0; \
	VMOVUPD x2, (DI); \
	VMOVUPD x0, (DI)(R10*1)

// ROWS3 is one rows3 butterfly: twiddles in w5–w8, 0.5 in h9, 0 in z10
// and −im in m11. bf3: sum, diff, re = a − (0.5 + 0i)·sum,
// rot = (0 − i·im)·diff.
#define ROWS3(x0, x1, x2, x3, x4, w5, w6, w7, w8, h9, z10, m11) \
	VMOVUPD (SI), x0; \
	VMOVUPD (SI)(R8*1), x1; \
	VMOVUPD (SI)(R8*2), x2; \
	CMUL(x1, w5, w6, x4); \
	CMUL(x2, w7, w8, x4); \
	VADDPD  x2, x1, x3; \
	VSUBPD  x2, x1, x1; \
	VMOVAPD x3, x2; \
	CMUL(x2, h9, z10, x4); \
	VSUBPD  x2, x0, x2; \
	CMUL(x1, z10, m11, x4); \
	VADDPD  x3, x0, x0; \
	VADDPD  x1, x2, x3; \
	VSUBPD  x1, x2, x2; \
	VMOVUPD x0, (DI); \
	VMOVUPD x3, (DI)(R10*1); \
	VMOVUPD x2, (DI)(R10*2)

// ROWS4 loads and twiddles one rows4 butterfly's inputs (twiddles in
// w6–w11) and runs BF4: x0..x3 of bf4 land in x2, x3, x4, x0.
#define ROWS4(x0, x1, x2, x3, x4, x5, w6, w7, w8, w9, w10, w11, m) \
	VMOVUPD (SI), x0; \
	VMOVUPD (SI)(R8*1), x1; \
	VMOVUPD (SI)(R8*2), x2; \
	VMOVUPD (SI)(R9*1), x3; \
	CMUL(x1, w6, w7, x4); \
	CMUL(x2, w8, w9, x4); \
	CMUL(x3, w10, w11, x4); \
	BF4(x0, x1, x2, x3, x4, x5, m)

// SCALE4 multiplies ROWS4's outputs by sc = (s13 + i·s14).
#define SCALE4(x0, x1, x2, x3, x4, s13, s14) \
	CMUL(x2, s13, s14, x1); \
	CMUL(x3, s13, s14, x1); \
	CMUL(x4, s13, s14, x1); \
	CMUL(x0, s13, s14, x1)

#define STORE4(x0, x2, x3, x4) \
	VMOVUPD x2, (DI); \
	VMOVUPD x3, (DI)(R10*1); \
	VMOVUPD x4, (DI)(R10*2); \
	VMOVUPD x0, (DI)(R11*1)

#define LEAF4(x0, x1, x2, x3, x4, x5, m) \
	VMOVUPD (SI), x0; \
	VMOVUPD (SI)(R8*1), x1; \
	VMOVUPD (SI)(R8*2), x2; \
	VMOVUPD (SI)(R9*1), x3; \
	BF4(x0, x1, x2, x3, x4, x5, m); \
	VMOVUPD x2, (DI); \
	VMOVUPD x3, (DI)(R12*1); \
	VMOVUPD x4, (DI)(R12*2); \
	VMOVUPD x0, (DI)(R13*1)

// LEAF8 is one rows8leaf column group. e = bf4(x0, x2, x4, x6) lands in
// e0 x2, e1 x3, e2 x4, e3 x0; o = bf4(x1, x3, x5, x7) in o0 x8, o1 x9,
// o2 x10, o3 x6. tw8: t2 = (sgn·o2i, −sgn·o2r);
// t1 = (√2/2 + 0i)·(o1r + sgn·o1i, o1i − sgn·o1r);
// t3 = (√2/2 + 0i)·(sgn·o3i − o3r, −sgn·o3r − o3i). √2/2 is in r13, 0
// in z14 and [sgn, −sgn] per complex in s15.
#define LEAF8(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, m, r13, z14, s15) \
	VMOVUPD (SI), x0; \
	VMOVUPD (SI)(R8*2), x1; \
	VMOVUPD (SI)(R8*4), x2; \
	VMOVUPD (SI)(R9*2), x3; \
	BF4(x0, x1, x2, x3, x4, x5, m); \
	VMOVUPD (SI)(R8*1), x6; \
	VMOVUPD (SI)(R9*1), x7; \
	VMOVUPD (SI)(R10*1), x8; \
	VMOVUPD (SI)(R11*1), x9; \
	BF4(x6, x7, x8, x9, x10, x11, m); \
	VPERMILPD $5, x10, x10; \
	VMULPD    s15, x10, x10; \
	VPERMILPD $5, x9, x7; \
	VMULPD    s15, x7, x7; \
	VADDPD    x7, x9, x9; \
	CMUL(x9, r13, z14, x7); \
	VPERMILPD $5, x6, x7; \
	VMULPD    s15, x7, x7; \
	VSUBPD    x6, x7, x6; \
	CMUL(x6, r13, z14, x7); \
	VADDPD  x8, x2, x1; \
	VSUBPD  x8, x2, x2; \
	VMOVUPD x1, (DI); \
	VMOVUPD x2, (DI)(R12*4); \
	VADDPD  x9, x3, x1; \
	VSUBPD  x9, x3, x3; \
	VMOVUPD x1, (DI)(R12*1); \
	VMOVUPD x3, (DI)(AX*1); \
	VADDPD  x10, x4, x1; \
	VSUBPD  x10, x4, x4; \
	VMOVUPD x1, (DI)(R12*2); \
	VMOVUPD x4, (DI)(R13*2); \
	VADDPD  x6, x0, x1; \
	VSUBPD  x6, x0, x0; \
	VMOVUPD x1, (DI)(R13*1); \
	VMOVUPD x0, (DI)(BX*1)

// POST is forward's post-pass on zk at SI and zh at R8: with conj(zh)
// by the imaginary sign mask m, xe = (zk + conj(zh))·(0.5 + 0i) and
// xo = (zk − conj(zh))·(0 − 0.5i)·(wr + i·wi), leaving xe + xo in xe.
// hf holds 0.5, zr 0 and nh −0.5.
#define POST(zk, zh, xe, xo, t, wr, wi, m, hf, zr, nh) \
	VMOVUPD (SI), zk; \
	VMOVUPD (R8), zh; \
	VXORPD  m, zh, zh; \
	VADDPD  zh, zk, xe; \
	VSUBPD  zh, zk, xo; \
	CMUL(xe, hf, zr, t); \
	CMUL(xo, zr, nh, t); \
	CMUL(xo, wr, wi, t); \
	VADDPD  xo, xe, xe

// UNFOLD is unfold(xk, xh, wr + i·wi) into xe, wr + i·wi being the
// conjugate twiddle: xe = (xk + conj(xh))·(0.5 + 0i),
// xo = (xk − conj(xh))·(0.5 + 0i)·(wr + i·wi), then xe + (0 + i)·xo.
// hf holds 0.5, zr 0 and on 1.
#define UNFOLD(xk, xh, xe, xo, t, wr, wi, m, hf, zr, on) \
	VXORPD  m, xh, xh; \
	VADDPD  xh, xk, xe; \
	VSUBPD  xh, xk, xo; \
	CMUL(xe, hf, zr, t); \
	CMUL(xo, hf, zr, t); \
	CMUL(xo, wr, wi, t); \
	CMUL(xo, zr, on, t); \
	VADDPD  xo, xe, xe

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

// Each stage and leaf kernel runs every column of its rows: the pair
// loop over the even prefix (BX bytes), then the tail when w is odd.

// func rows2AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w int, tw *complex128)
TEXT ·rows2AVX2(SB), NOSPLIT, $0-64
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
	MOVQ R13, BX
	ANDQ $-32, BX
	MOVQ tw+56(FP), DX

row2:
	VBROADCASTSD 0(DX), Y6
	VBROADCASTSD 8(DX), Y7
	MOVQ         BX, AX
	TESTQ        AX, AX
	JEQ          tail2

col2:
	ROWS2(Y0, Y1, Y2, Y4, Y6, Y7)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, AX
	JNE  col2

tail2:
	CMPQ BX, R13
	JEQ  next2
	ROWS2(X0, X1, X2, X4, X6, X7)
	ADDQ $16, SI
	ADDQ $16, DI

next2:
	SUBQ R13, DI
	ADDQ R12, DI
	ADDQ $16, DX
	DECQ CX
	JNE  row2
	VZEROUPPER
	RET

// func rows3AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w int, tw *complex128, negIm float64)
TEXT ·rows3AVX2(SB), NOSPLIT, $0-72
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
	MOVQ R13, BX
	ANDQ $-32, BX
	MOVQ tw+56(FP), DX
	VBROADCASTSD half<>(SB), Y9
	VXORPD       Y10, Y10, Y10
	VBROADCASTSD negIm+64(FP), Y11

row3:
	VBROADCASTSD 0(DX), Y5
	VBROADCASTSD 8(DX), Y6
	VBROADCASTSD 16(DX), Y7
	VBROADCASTSD 24(DX), Y8
	MOVQ         BX, AX
	TESTQ        AX, AX
	JEQ          tail3

col3:
	ROWS3(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, AX
	JNE  col3

tail3:
	CMPQ BX, R13
	JEQ  next3
	ROWS3(X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11)
	ADDQ $16, SI
	ADDQ $16, DI

next3:
	SUBQ R13, DI
	ADDQ R12, DI
	ADDQ $32, DX
	DECQ CX
	JNE  row3
	VZEROUPPER
	RET

// func rows4AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w int, tw *complex128, fwd bool, sc complex128, scaled bool)
TEXT ·rows4AVX2(SB), NOSPLIT, $0-89
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
	MOVQ R13, BX
	ANDQ $-32, BX
	MOVQ tw+56(FP), DX

	// −i·(b−d) forward flips the new imaginary part, +i·(b−d) the real.
	VMOVUPD negIm<>(SB), Y12
	CMPB    fwd+64(FP), $0
	JNE     scale4
	VMOVUPD negRe<>(SB), Y12

scale4:
	VBROADCASTSD sc_real+72(FP), Y13
	VBROADCASTSD sc_imag+80(FP), Y14

row4:
	VBROADCASTSD 0(DX), Y6
	VBROADCASTSD 8(DX), Y7
	VBROADCASTSD 16(DX), Y8
	VBROADCASTSD 24(DX), Y9
	VBROADCASTSD 32(DX), Y10
	VBROADCASTSD 40(DX), Y11
	MOVQ         BX, AX
	TESTQ        AX, AX
	JEQ          tail4

col4:
	ROWS4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12)
	CMPB scaled+88(FP), $0
	JEQ  store4
	SCALE4(Y0, Y1, Y2, Y3, Y4, Y13, Y14)

store4:
	STORE4(Y0, Y2, Y3, Y4)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, AX
	JNE  col4

tail4:
	CMPQ BX, R13
	JEQ  next4
	ROWS4(X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12)
	CMPB scaled+88(FP), $0
	JEQ  store4x
	SCALE4(X0, X1, X2, X3, X4, X13, X14)

store4x:
	STORE4(X0, X2, X3, X4)
	ADDQ $16, SI
	ADDQ $16, DI

next4:
	SUBQ R13, DI
	ADDQ R12, DI
	ADDQ $48, DX
	DECQ CX
	JNE  row4
	VZEROUPPER
	RET

// func rows4leafAVX2(out *complex128, w int, x *complex128, s int, fwd bool)
TEXT ·rows4leafAVX2(SB), NOSPLIT, $0-33
	MOVQ out+0(FP), DI
	MOVQ w+8(FP), R12
	SHLQ $4, R12
	LEAQ (R12)(R12*2), R13
	MOVQ x+16(FP), SI
	MOVQ s+24(FP), R8
	SHLQ $4, R8
	LEAQ (R8)(R8*2), R9
	MOVQ R12, AX
	ANDQ $-32, AX
	VMOVUPD negIm<>(SB), Y12
	CMPB    fwd+32(FP), $0
	JNE     start4leaf
	VMOVUPD negRe<>(SB), Y12

start4leaf:
	TESTQ AX, AX
	JEQ   tail4leaf

col4leaf:
	LEAF4(Y0, Y1, Y2, Y3, Y4, Y5, Y12)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, AX
	JNE  col4leaf

tail4leaf:
	TESTQ $16, R12
	JEQ   done4leaf
	LEAF4(X0, X1, X2, X3, X4, X5, X12)

done4leaf:
	VZEROUPPER
	RET

// func rows8leafAVX2(out *complex128, w int, x *complex128, s int, fwd bool, sgn float64)
TEXT ·rows8leafAVX2(SB), NOSPLIT, $0-48
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
	MOVQ R12, CX
	ANDQ $-32, CX
	VMOVUPD negIm<>(SB), Y12
	CMPB    fwd+32(FP), $0
	JNE     consts8
	VMOVUPD negRe<>(SB), Y12

consts8:
	// Y13 = √2/2, Y14 = 0, Y15 = [sgn, −sgn] per complex.
	VBROADCASTSD sqrt1_2<>(SB), Y13
	VXORPD       Y14, Y14, Y14
	VBROADCASTSD sgn+40(FP), Y15
	VXORPD       negIm<>(SB), Y15, Y15
	TESTQ        CX, CX
	JEQ          tail8leaf

col8leaf:
	LEAF8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JNE  col8leaf

tail8leaf:
	TESTQ $16, R12
	JEQ   done8leaf
	LEAF8(X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14, X15)

done8leaf:
	VZEROUPPER
	RET

// The real pass. pack and unpack walk two lines at a time (one in the
// tail), a line's h sample pairs against a column of the tile; post
// and unfold walk the tile's rows, two columns at a time.

// func packAVX2(z *complex128, w, h int, src *float64, rd int)
TEXT ·packAVX2(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ w+8(FP), R13
	MOVQ R13, R12
	SHLQ $4, R12
	MOVQ h+16(FP), CX
	MOVQ src+24(FP), SI
	MOVQ rd+32(FP), R8
	SHLQ $3, R8
	MOVQ R13, BX
	SHRQ $1, BX
	JEQ  tailpack

pairpack:
	MOVQ SI, R9
	MOVQ DI, R10
	MOVQ CX, AX

colpack:
	// Sample pair j of lines t and t+1 to z[j·w + t], z[j·w + t + 1].
	VMOVUPD     (R9), X0
	VINSERTF128 $1, (R9)(R8*1), Y0, Y0
	VMOVUPD     Y0, (R10)
	ADDQ        $16, R9
	ADDQ        R12, R10
	DECQ        AX
	JNE         colpack
	LEAQ        (SI)(R8*2), SI
	ADDQ        $32, DI
	DECQ        BX
	JNE         pairpack

tailpack:
	TESTQ $1, R13
	JEQ   donepack

colpack1:
	VMOVUPD (SI), X0
	VMOVUPD X0, (DI)
	ADDQ    $16, SI
	ADDQ    R12, DI
	DECQ    CX
	JNE     colpack1

donepack:
	VZEROUPPER
	RET

// func postAVX2(dst *complex128, cs, cd int, zk, zh *complex128, w, rows int, wr *complex128)
TEXT ·postAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ cs+8(FP), R11
	SHLQ $4, R11
	MOVQ cd+16(FP), R10
	SHLQ $4, R10
	MOVQ zk+24(FP), SI
	MOVQ zh+32(FP), R8
	MOVQ w+40(FP), R13
	SHLQ $4, R13
	MOVQ R13, BX
	ANDQ $-32, BX
	MOVQ rows+48(FP), CX
	MOVQ wr+56(FP), DX
	VMOVUPD      negIm<>(SB), Y12
	VBROADCASTSD half<>(SB), Y13
	VXORPD       Y14, Y14, Y14
	VBROADCASTSD negHalf<>(SB), Y15

rowpost:
	VBROADCASTSD 0(DX), Y6
	VBROADCASTSD 8(DX), Y7
	MOVQ         DI, R9
	MOVQ         BX, AX
	TESTQ        AX, AX
	JEQ          tailpost

colpost:
	// Bin k of lines t and t+1 to dst[t·cd + k·cs], dst[(t+1)·cd + k·cs].
	POST(Y0, Y1, Y2, Y3, Y4, Y6, Y7, Y12, Y13, Y14, Y15)
	VMOVUPD      X2, (R9)
	VEXTRACTF128 $1, Y2, (R9)(R10*1)
	ADDQ         $32, SI
	ADDQ         $32, R8
	LEAQ         (R9)(R10*2), R9
	SUBQ         $32, AX
	JNE          colpost

tailpost:
	CMPQ BX, R13
	JEQ  nextpost
	POST(X0, X1, X2, X3, X4, X6, X7, X12, X13, X14, X15)
	VMOVUPD X2, (R9)
	ADDQ    $16, SI
	ADDQ    $16, R8

nextpost:
	// zk moves down a row, zh up one.
	SUBQ R13, R8
	SUBQ R13, R8
	ADDQ R11, DI
	ADDQ $16, DX
	DECQ CX
	JNE  rowpost
	VZEROUPPER
	RET

// func unfoldAVX2(z *complex128, w int, xk, xh *complex128, cs, cd, rows int, wr *complex128, inK, inH bool)
TEXT ·unfoldAVX2(SB), NOSPLIT, $0-66
	MOVQ z+0(FP), DI
	MOVQ w+8(FP), R13
	SHLQ $4, R13
	MOVQ R13, BX
	ANDQ $-32, BX
	MOVQ xk+16(FP), SI
	MOVQ xh+24(FP), R8
	MOVQ cs+32(FP), R11
	SHLQ $4, R11
	MOVQ cd+40(FP), R10
	SHLQ $4, R10
	MOVQ rows+48(FP), CX
	MOVQ wr+56(FP), DX
	VMOVUPD      negIm<>(SB), Y12
	VBROADCASTSD half<>(SB), Y13
	VXORPD       Y14, Y14, Y14
	VBROADCASTSD one<>(SB), Y15
	VBROADCASTSD signBit<>(SB), Y11

rowunf:
	// wc = conj(wr[r]).
	VBROADCASTSD 0(DX), Y6
	VBROADCASTSD 8(DX), Y7
	VXORPD       Y11, Y7, Y7
	MOVQ         SI, R9
	MOVQ         R8, R12
	MOVQ         BX, AX
	TESTQ        AX, AX
	JEQ          tailunf

colunf:
	// X[k] and X[h−k] of lines t and t+1, +0 for an operand out of band.
	VXORPD      Y0, Y0, Y0
	CMPB        inK+64(FP), $0
	JEQ         hunf
	VMOVUPD     (R9), X0
	VINSERTF128 $1, (R9)(R10*1), Y0, Y0

hunf:
	VXORPD      Y1, Y1, Y1
	CMPB        inH+65(FP), $0
	JEQ         calcunf
	VMOVUPD     (R12), X1
	VINSERTF128 $1, (R12)(R10*1), Y1, Y1

calcunf:
	UNFOLD(Y0, Y1, Y2, Y3, Y4, Y6, Y7, Y12, Y13, Y14, Y15)
	VMOVUPD Y2, (DI)
	LEAQ    (R9)(R10*2), R9
	LEAQ    (R12)(R10*2), R12
	ADDQ    $32, DI
	SUBQ    $32, AX
	JNE     colunf

tailunf:
	CMPQ   BX, R13
	JEQ    nextunf
	VXORPD X0, X0, X0
	CMPB   inK+64(FP), $0
	JEQ    hunf1
	VMOVUPD (R9), X0

hunf1:
	VXORPD X1, X1, X1
	CMPB   inH+65(FP), $0
	JEQ    calcunf1
	VMOVUPD (R12), X1

calcunf1:
	UNFOLD(X0, X1, X2, X3, X4, X6, X7, X12, X13, X14, X15)
	VMOVUPD X2, (DI)
	ADDQ    $16, DI

nextunf:
	// X[k] moves up a bin, X[h−k] down one.
	ADDQ R11, SI
	SUBQ R11, R8
	ADDQ $16, DX
	DECQ CX
	JNE  rowunf
	VZEROUPPER
	RET

// func unpackAVX2(dst *float64, rd int, z *complex128, w, h int)
TEXT ·unpackAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ rd+8(FP), R8
	SHLQ $3, R8
	MOVQ z+16(FP), SI
	MOVQ w+24(FP), R13
	MOVQ R13, R12
	SHLQ $4, R12
	MOVQ h+32(FP), CX
	MOVQ R13, BX
	SHRQ $1, BX
	JEQ  tailunpack

pairunpack:
	MOVQ DI, R9
	MOVQ SI, R10
	MOVQ CX, AX

colunpack:
	// z[j·w + t], z[j·w + t + 1] to samples 2j, 2j+1 of lines t and t+1.
	VMOVUPD      (R10), Y0
	VMOVUPD      X0, (R9)
	VEXTRACTF128 $1, Y0, (R9)(R8*1)
	ADDQ         $16, R9
	ADDQ         R12, R10
	DECQ         AX
	JNE          colunpack
	LEAQ         (DI)(R8*2), DI
	ADDQ         $32, SI
	DECQ         BX
	JNE          pairunpack

tailunpack:
	TESTQ $1, R13
	JEQ   doneunpack

colunpack1:
	VMOVUPD (SI), X0
	VMOVUPD X0, (DI)
	ADDQ    $16, DI
	ADDQ    R12, SI
	DECQ    CX
	JNE     colunpack1

doneunpack:
	VZEROUPPER
	RET
