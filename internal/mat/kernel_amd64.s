//go:build !purego

#include "textflag.h"

// AVX2 implementations of the two kernel families (see kernel_amd64.go).
// Every element follows the scalar reference's rounding sequence exactly:
// VMULPD then VADDPD rounds twice like Go's c += a*b, VFMADD231PD rounds
// once like math.FMA. In the GEMM tile and axpy, lanes run across
// independent elements, never across the k sum; the dot tile's four lanes
// are Dot's own s0..s3.

// One k step of the 4×8 tile: B row p in Y8:Y9, the four A values broadcast
// one at a time into Y10, accumulators Y0..Y7 (row i in Y(2i):Y(2i+1)).
// KSTEP ends on DECQ CX so the JNZ after it closes the k loop.
#define ROW_MULADD(abcast, lo, hi) \
	VBROADCASTSD abcast, Y10;  \
	VMULPD       Y8, Y10, Y11; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y11, lo, lo;  \
	VADDPD       Y12, hi, hi

#define ROW_FMA(abcast, lo, hi) \
	VBROADCASTSD abcast, Y10; \
	VFMADD231PD  Y8, Y10, lo; \
	VFMADD231PD  Y9, Y10, hi

#define KSTEP(ROW) \
	VMOVUPD (DI), Y8;         \
	VMOVUPD 32(DI), Y9;       \
	ROW((SI), Y0, Y1);        \
	ROW((SI)(R8*1), Y2, Y3);  \
	ROW((SI)(R8*2), Y4, Y5);  \
	ROW((SI)(R10*1), Y6, Y7); \
	ADDQ    R9, SI;           \
	ADDQ    $64, DI;          \
	DECQ    CX

// The gathered twin of KSTEP: the four row pointers SI, R8, R10, R11 stay
// put and the column offset of step p is loaded from the table at R9.
#define GSTEP(ROW) \
	MOVQ    (R9), DX;         \
	VMOVUPD (DI), Y8;         \
	VMOVUPD 32(DI), Y9;       \
	ROW((SI)(DX*8), Y0, Y1);  \
	ROW((R8)(DX*8), Y2, Y3);  \
	ROW((R10)(DX*8), Y4, Y5); \
	ROW((R11)(DX*8), Y6, Y7); \
	ADDQ    $8, R9;           \
	ADDQ    $64, DI;          \
	DECQ    CX

// Y0..Y7, the eight accumulators of every tile in this file, to +0.
#define ZERO_TILE \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// The end of both tile kernels (their frames agree on assign, c and ldc):
// c[i*ldc+j] = 0 + acc (assign) or c[i*ldc+j] + acc. On assign it is 0 + acc,
// not acc: a fused sum of underflowing products can be -0.
#define STORE_TILE \
	MOVQ    c+48(FP), DX;      \
	MOVQ    ldc+56(FP), BX;    \
	SHLQ    $3, BX;            \
	LEAQ    (DX)(BX*1), R11;   \
	LEAQ    (DX)(BX*2), R12;   \
	LEAQ    (R11)(BX*2), R13;  \
	CMPB    assign+1(FP), $0;  \
	JNE     assign;            \
	VADDPD  (DX), Y0, Y0;      \
	VADDPD  32(DX), Y1, Y1;    \
	VADDPD  (R11), Y2, Y2;     \
	VADDPD  32(R11), Y3, Y3;   \
	VADDPD  (R12), Y4, Y4;     \
	VADDPD  32(R12), Y5, Y5;   \
	VADDPD  (R13), Y6, Y6;     \
	VADDPD  32(R13), Y7, Y7;   \
	JMP     write;             \
assign:                        \
	VXORPD  Y8, Y8, Y8;        \
	VADDPD  Y8, Y0, Y0;        \
	VADDPD  Y8, Y1, Y1;        \
	VADDPD  Y8, Y2, Y2;        \
	VADDPD  Y8, Y3, Y3;        \
	VADDPD  Y8, Y4, Y4;        \
	VADDPD  Y8, Y5, Y5;        \
	VADDPD  Y8, Y6, Y6;        \
	VADDPD  Y8, Y7, Y7;        \
write:                         \
	VMOVUPD Y0, (DX);          \
	VMOVUPD Y1, 32(DX);        \
	VMOVUPD Y2, (R11);         \
	VMOVUPD Y3, 32(R11);       \
	VMOVUPD Y4, (R12);         \
	VMOVUPD Y5, 32(R12);       \
	VMOVUPD Y6, (R13);         \
	VMOVUPD Y7, 32(R13);       \
	VZEROUPPER;                \
	RET

// func kernel4x8(fma, assign bool, kc int, a *float64, rs, cs int, b, c *float64, ldc int)
//
// acc[i][j] = Σ_p a[i*rs+p*cs] * b[p*8+j] for p ascending from +0, then
// c[i*ldc+j] = 0 + acc (assign) or c[i*ldc+j] + acc. kc ≥ 1.
TEXT ·kernel4x8(SB), NOSPLIT, $0-64
	MOVQ kc+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ rs+24(FP), R8
	MOVQ cs+32(FP), R9
	MOVQ b+40(FP), DI
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R10
	ZERO_TILE
	CMPB fma+0(FP), $0
	JNE  kfma

kmuladd:
	KSTEP(ROW_MULADD)
	JNZ kmuladd
	JMP store

kfma:
	KSTEP(ROW_FMA)
	JNZ kfma

store:
	STORE_TILE

// func kernel4x8g(fma, assign bool, kc int, a *float64, row, col *int, b, c *float64, ldc int)
//
// kernel4x8 over a gathered panel: acc[i][j] = Σ_p a[row[i]+col[p]] * b[p*8+j],
// row four entries and col kc, neither checked here. kc ≥ 1.
TEXT ·kernel4x8g(SB), NOSPLIT, $0-64
	MOVQ kc+8(FP), CX
	MOVQ a+16(FP), AX
	MOVQ row+24(FP), BX
	MOVQ col+32(FP), R9
	MOVQ b+40(FP), DI
	MOVQ (BX), SI
	MOVQ 8(BX), R8
	MOVQ 16(BX), R10
	MOVQ 24(BX), R11
	LEAQ (AX)(SI*8), SI
	LEAQ (AX)(R8*8), R8
	LEAQ (AX)(R10*8), R10
	LEAQ (AX)(R11*8), R11
	ZERO_TILE
	CMPB fma+0(FP), $0
	JNE  gfma

gmuladd:
	GSTEP(ROW_MULADD)
	JNZ gmuladd
	JMP gstore

gfma:
	GSTEP(ROW_FMA)
	JNZ gfma

gstore:
	STORE_TILE

// func axpyAVX2(fma bool, dst, src []float64, s float64)
//
// dst[i] += s*src[i] for i < len(dst); the caller guarantees
// len(src) ≥ len(dst).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst_base+8(FP), DI
	MOVQ         dst_len+16(FP), CX
	MOVQ         src_base+32(FP), SI
	VBROADCASTSD s+56(FP), Y0
	CMPB         fma+0(FP), $0
	JNE          afma

amuladd4:
	SUBQ    $4, CX
	JLT     amuladd1
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	JMP     amuladd4

amuladd1:
	ADDQ $4, CX

amuladdtail:
	JZ     adone
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    amuladdtail

afma:
	SUBQ        $4, CX
	JLT         afma1
	VMOVUPD     (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	JMP         afma

afma1:
	ADDQ $4, CX

afmatail:
	JZ          adone
	VMOVSD      (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD      X1, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JMP         afmatail

adone:
	VZEROUPPER
	RET

// The dot-form tile: accumulator (r, c) holds the four lanes of
// Dot(x_r, y_c) — lane l the sum over ascending 4-groups of element 4g+l,
// from +0 — so a tile is rows·4 independent chains where one Dot is a single
// latency-bound one. DOTLOAD reads one 4-group of x row 0 and the four y
// rows; DOTNEXT ends on DECQ CX so the JNZ after it closes the k loop.
#define DOTLOAD \
	VMOVUPD (SI), Y8;        \
	VMOVUPD (DI), Y10;       \
	VMOVUPD (DI)(R9*1), Y11; \
	VMOVUPD (DI)(R9*2), Y12; \
	VMOVUPD (DI)(R10*1), Y13

#define DOTROW_MULADD(xv, a0, a1, a2, a3) \
	VMULPD Y10, xv, Y14; \
	VMULPD Y11, xv, Y15; \
	VADDPD Y14, a0, a0;  \
	VADDPD Y15, a1, a1;  \
	VMULPD Y12, xv, Y14; \
	VMULPD Y13, xv, Y15; \
	VADDPD Y14, a2, a2;  \
	VADDPD Y15, a3, a3

#define DOTROW_FMA(xv, a0, a1, a2, a3) \
	VFMADD231PD Y10, xv, a0; \
	VFMADD231PD Y11, xv, a1; \
	VFMADD231PD Y12, xv, a2; \
	VFMADD231PD Y13, xv, a3

#define DOTNEXT \
	ADDQ $32, SI; \
	ADDQ $32, DI; \
	DECQ CX

// Dot's finish for one tile row, four columns at a time: transpose the four
// accumulators so a0..a3 hold lanes 0..3 of every column, then
// ((l0+l1)+l2)+l3 into a0.
#define DOTHSUM(a0, a1, a2, a3) \
	VUNPCKLPD  a1, a0, Y8;         \
	VUNPCKHPD  a1, a0, Y9;         \
	VUNPCKLPD  a3, a2, Y10;        \
	VUNPCKHPD  a3, a2, Y11;        \
	VPERM2F128 $0x20, Y10, Y8, a0; \
	VPERM2F128 $0x20, Y11, Y9, a1; \
	VPERM2F128 $0x31, Y10, Y8, a2; \
	VPERM2F128 $0x31, Y11, Y9, a3; \
	VADDPD     a1, a0, a0;         \
	VADDPD     a2, a0, a0;         \
	VADDPD     a3, a0, a0

// func dotTileAVX2(fma bool, rows, k int, x *float64, ldx int, y *float64, ldy int, out *float64, ldo int)
//
// out[r*ldo+c] = Dot(x[r*ldx:][:k], y[c*ldy:][:k]) for r < rows, c < 4, in
// the mul+add family or as dotFMA. rows is 1 or 2, k ≥ 4.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-72
	MOVQ   k+16(FP), CX
	MOVQ   x+24(FP), SI
	MOVQ   ldx+32(FP), R8
	MOVQ   y+40(FP), DI
	MOVQ   ldy+48(FP), R9
	SHRQ   $2, CX
	SHLQ   $3, R8
	SHLQ   $3, R9
	LEAQ   (R9)(R9*2), R10
	ZERO_TILE
	CMPQ   rows+8(FP), $1
	JNE    two

	// One row: the finish below runs on row 0 twice and stores it once.
	XORQ R8, R8
	CMPB fma+0(FP), $0
	JNE  onefma

onemuladd:
	DOTLOAD
	DOTROW_MULADD(Y8, Y0, Y1, Y2, Y3)
	DOTNEXT
	JNZ onemuladd
	JMP finish

onefma:
	DOTLOAD
	DOTROW_FMA(Y8, Y0, Y1, Y2, Y3)
	DOTNEXT
	JNZ onefma
	JMP finish

two:
	CMPB fma+0(FP), $0
	JNE  twofma

twomuladd:
	DOTLOAD
	VMOVUPD (SI)(R8*1), Y9
	DOTROW_MULADD(Y8, Y0, Y1, Y2, Y3)
	DOTROW_MULADD(Y9, Y4, Y5, Y6, Y7)
	DOTNEXT
	JNZ twomuladd
	JMP finish

twofma:
	DOTLOAD
	VMOVUPD (SI)(R8*1), Y9
	DOTROW_FMA(Y8, Y0, Y1, Y2, Y3)
	DOTROW_FMA(Y9, Y4, Y5, Y6, Y7)
	DOTNEXT
	JNZ twofma

finish:
	DOTHSUM(Y0, Y1, Y2, Y3)
	DOTHSUM(Y4, Y5, Y6, Y7)
	MOVQ k+16(FP), CX
	ANDQ $3, CX
	JZ   store

tail:
	// s += x[i]*y[i] for the k mod 4 last elements, all columns at once.
	VMOVSD       (DI), X10
	VMOVHPD      (DI)(R9*1), X10, X10
	VMOVSD       (DI)(R9*2), X11
	VMOVHPD      (DI)(R10*1), X11, X11
	VINSERTF128  $1, X11, Y10, Y10
	VBROADCASTSD (SI), Y8
	VBROADCASTSD (SI)(R8*1), Y9
	CMPB         fma+0(FP), $0
	JNE          tailfma
	VMULPD       Y10, Y8, Y14
	VMULPD       Y10, Y9, Y15
	VADDPD       Y14, Y0, Y0
	VADDPD       Y15, Y4, Y4
	JMP          tailnext

tailfma:
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y4

tailnext:
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  tail

store:
	MOVQ    out+56(FP), DX
	VMOVUPD Y0, (DX)
	CMPQ    rows+8(FP), $1
	JE      done
	MOVQ    ldo+64(FP), BX
	VMOVUPD Y4, (DX)(BX*8)

done:
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

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
