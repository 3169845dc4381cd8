//go:build !purego

#include "textflag.h"

// AVX2 and AVX-512 implementations of the fused multiply-add kernels (see
// kernel_amd64.go). Every element follows the scalar reference's rounding
// sequence exactly: VFMADD231PD rounds once like math.FMA. In the GEMM tile,
// axpy and the substitution tile, lanes run across independent elements,
// never across the k sum; the dot tile's four lanes are Dot's own s0..s3.

// One k step of the 4×8 tile: B row p in Y8:Y9, the four A values broadcast
// one at a time into Y10, accumulators Y0..Y7 (row i in Y(2i):Y(2i+1)). The
// B row stride in bytes is in R12. KSTEP ends on DECQ CX so the JNZ after it
// closes the k loop.
#define ROW(abcast, lo, hi) \
	VBROADCASTSD abcast, Y10; \
	VFMADD231PD  Y8, Y10, lo; \
	VFMADD231PD  Y9, Y10, hi

#define KSTEP \
	VMOVUPD (DI), Y8;         \
	VMOVUPD 32(DI), Y9;       \
	ROW((SI), Y0, Y1);        \
	ROW((SI)(R8*1), Y2, Y3);  \
	ROW((SI)(R8*2), Y4, Y5);  \
	ROW((SI)(R10*1), Y6, Y7); \
	ADDQ    R9, SI;           \
	ADDQ    R12, DI;          \
	DECQ    CX

// The gathered twin of KSTEP: the four row pointers SI, R8, R10, R11 stay
// put and the column offset of step p is loaded from the table at R9.
#define GSTEP \
	MOVQ    (R9), DX;         \
	VMOVUPD (DI), Y8;         \
	VMOVUPD 32(DI), Y9;       \
	ROW((SI)(DX*8), Y0, Y1);  \
	ROW((R8)(DX*8), Y2, Y3);  \
	ROW((R10)(DX*8), Y4, Y5); \
	ROW((R11)(DX*8), Y6, Y7); \
	ADDQ    $8, R9;           \
	ADDQ    R12, DI;          \
	DECQ    CX

// The 4×16 tile's k step: KSTEP with every register twice as wide, the B row
// in Z8:Z9 and accumulators Z0..Z7; the packed B row stride is 128 bytes.
#define ZROW(abcast, lo, hi) \
	VBROADCASTSD abcast, Z10; \
	VFMADD231PD  Z8, Z10, lo; \
	VFMADD231PD  Z9, Z10, hi

#define ZKSTEP \
	VMOVUPD (DI), Z8;          \
	VMOVUPD 64(DI), Z9;        \
	ZROW((SI), Z0, Z1);        \
	ZROW((SI)(R8*1), Z2, Z3);  \
	ZROW((SI)(R8*2), Z4, Z5);  \
	ZROW((SI)(R10*1), Z6, Z7); \
	ADDQ    R9, SI;            \
	ADDQ    $128, DI;          \
	DECQ    CX

#define ZGSTEP \
	MOVQ    (R9), DX;          \
	VMOVUPD (DI), Z8;          \
	VMOVUPD 64(DI), Z9;        \
	ZROW((SI)(DX*8), Z0, Z1);  \
	ZROW((R8)(DX*8), Z2, Z3);  \
	ZROW((R10)(DX*8), Z4, Z5); \
	ZROW((R11)(DX*8), Z6, Z7); \
	ADDQ    $8, R9;            \
	ADDQ    $128, DI;          \
	DECQ    CX

// Y0..Y7, the eight accumulators of every AVX2 tile in this file, to +0.
// (A VEX write clears the upper lanes, so this zeroes Z0..Z7 as well.)
#define ZERO_TILE \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// The row pointers of a 4-row output tile: c in DX, rows 1..3 in R11..R13.
#define TILE_ROWS(cArg, ldcArg) \
	MOVQ    cArg, DX;          \
	MOVQ    ldcArg, BX;        \
	SHLQ    $3, BX;            \
	LEAQ    (DX)(BX*1), R11;   \
	LEAQ    (DX)(BX*2), R12;   \
	LEAQ    (R11)(BX*2), R13

// The end of the 4×8 kernels (their frames agree on assign, c and ldc):
// c[i*ldc+j] = 0 + acc (assign) or c[i*ldc+j] + acc. On assign it is 0 + acc,
// not acc: a fused sum of underflowing products can be -0.
#define STORE_TILE \
	TILE_ROWS(c+56(FP), ldc+64(FP)); \
	CMPB    assign+0(FP), $0;  \
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

// STORE_TILE for the 4×16 kernels, in ZMM registers.
#define ZSTORE_TILE \
	TILE_ROWS(c+48(FP), ldc+56(FP)); \
	CMPB    assign+0(FP), $0;  \
	JNE     assign;            \
	VADDPD  (DX), Z0, Z0;      \
	VADDPD  64(DX), Z1, Z1;    \
	VADDPD  (R11), Z2, Z2;     \
	VADDPD  64(R11), Z3, Z3;   \
	VADDPD  (R12), Z4, Z4;     \
	VADDPD  64(R12), Z5, Z5;   \
	VADDPD  (R13), Z6, Z6;     \
	VADDPD  64(R13), Z7, Z7;   \
	JMP     write;             \
assign:                        \
	VPXORQ  Z8, Z8, Z8;        \
	VADDPD  Z8, Z0, Z0;        \
	VADDPD  Z8, Z1, Z1;        \
	VADDPD  Z8, Z2, Z2;        \
	VADDPD  Z8, Z3, Z3;        \
	VADDPD  Z8, Z4, Z4;        \
	VADDPD  Z8, Z5, Z5;        \
	VADDPD  Z8, Z6, Z6;        \
	VADDPD  Z8, Z7, Z7;        \
write:                         \
	VMOVUPD Z0, (DX);          \
	VMOVUPD Z1, 64(DX);        \
	VMOVUPD Z2, (R11);         \
	VMOVUPD Z3, 64(R11);       \
	VMOVUPD Z4, (R12);         \
	VMOVUPD Z5, 64(R12);       \
	VMOVUPD Z6, (R13);         \
	VMOVUPD Z7, 64(R13);       \
	VZEROUPPER;                \
	RET

// The operands of the strided kernels: kc in CX, a in SI, the row stride in
// R8 (bytes, R10 = 3·R8), the column stride in R9 and b in DI.
#define STRIDED_ARGS \
	MOVQ kc+8(FP), CX;  \
	MOVQ a+16(FP), SI;  \
	MOVQ rs+24(FP), R8; \
	MOVQ cs+32(FP), R9; \
	MOVQ b+40(FP), DI;  \
	SHLQ $3, R8;        \
	SHLQ $3, R9;        \
	LEAQ (R8)(R8*2), R10

// The operands of the gathered kernels: kc in CX, the four row pointers
// a+row[i] in SI, R8, R10, R11, the column table in R9 and b in DI.
#define GATHERED_ARGS \
	MOVQ kc+8(FP), CX;      \
	MOVQ a+16(FP), AX;      \
	MOVQ row+24(FP), BX;    \
	MOVQ col+32(FP), R9;    \
	MOVQ b+40(FP), DI;      \
	MOVQ (BX), SI;          \
	MOVQ 8(BX), R8;         \
	MOVQ 16(BX), R10;       \
	MOVQ 24(BX), R11;       \
	LEAQ (AX)(SI*8), SI;    \
	LEAQ (AX)(R8*8), R8;    \
	LEAQ (AX)(R10*8), R10;  \
	LEAQ (AX)(R11*8), R11

// func kernel4x8(assign bool, kc int, a *float64, rs, cs int, b *float64, ldb int, c *float64, ldc int)
//
// acc[i][j] = Σ_p a[i*rs+p*cs] * b[p*ldb+j] for p ascending from +0, then
// c[i*ldc+j] = 0 + acc (assign) or c[i*ldc+j] + acc. kc ≥ 1.
TEXT ·kernel4x8(SB), NOSPLIT, $0-72
	STRIDED_ARGS
	MOVQ ldb+48(FP), R12
	SHLQ $3, R12
	ZERO_TILE

kloop:
	KSTEP
	JNZ kloop
	STORE_TILE

// func kernel4x8g(assign bool, kc int, a *float64, row, col *int, b *float64, ldb int, c *float64, ldc int)
//
// kernel4x8 over a gathered panel: acc[i][j] = Σ_p a[row[i]+col[p]] * b[p*ldb+j],
// row four entries and col kc, neither checked here. kc ≥ 1.
TEXT ·kernel4x8g(SB), NOSPLIT, $0-72
	GATHERED_ARGS
	MOVQ ldb+48(FP), R12
	SHLQ $3, R12
	ZERO_TILE

gloop:
	GSTEP
	JNZ gloop
	STORE_TILE

// func kernel4x16(assign bool, kc int, a *float64, rs, cs int, b, c *float64, ldc int)
//
// The AVX-512 tile: acc[i][j] = Σ_p a[i*rs+p*cs] * b[p*16+j], stored as
// kernel4x8 stores. kc ≥ 1.
TEXT ·kernel4x16(SB), NOSPLIT, $0-64
	STRIDED_ARGS
	ZERO_TILE

zloop:
	ZKSTEP
	JNZ zloop
	ZSTORE_TILE

// func kernel4x16g(assign bool, kc int, a *float64, row, col *int, b, c *float64, ldc int)
//
// kernel4x16 over a gathered panel, as kernel4x8g. kc ≥ 1.
TEXT ·kernel4x16g(SB), NOSPLIT, $0-64
	GATHERED_ARGS
	ZERO_TILE

zgloop:
	ZGSTEP
	JNZ zgloop
	ZSTORE_TILE

// func axpyAVX2(dst, src []float64, s float64)
//
// dst[i] = fma(s, src[i], dst[i]) for i < len(dst); the caller guarantees
// len(src) ≥ len(dst).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y0

a4:
	SUBQ        $4, CX
	JLT         a1
	VMOVUPD     (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	JMP         a4

a1:
	ADDQ $4, CX

atail:
	JZ          adone
	VMOVSD      (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD      X1, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JMP         atail

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

#define DOTROW(xv, a0, a1, a2, a3) \
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

// func dotTileAVX2(rows, k int, x *float64, ldx int, y *float64, ldy int, out *float64, ldo int)
//
// out[r*ldo+c] = Dot(x[r*ldx:][:k], y[c*ldy:][:k]) for r < rows, c < 4, as
// dotFMA. rows is 1 or 2, k ≥ 4.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-64
	MOVQ   k+8(FP), CX
	MOVQ   x+16(FP), SI
	MOVQ   ldx+24(FP), R8
	MOVQ   y+32(FP), DI
	MOVQ   ldy+40(FP), R9
	SHRQ   $2, CX
	SHLQ   $3, R8
	SHLQ   $3, R9
	LEAQ   (R9)(R9*2), R10
	ZERO_TILE
	CMPQ   rows+0(FP), $1
	JNE    two

	// One row: the finish below runs on row 0 twice and stores it once.
	XORQ R8, R8

one:
	DOTLOAD
	DOTROW(Y8, Y0, Y1, Y2, Y3)
	DOTNEXT
	JNZ one
	JMP finish

two:
	DOTLOAD
	VMOVUPD (SI)(R8*1), Y9
	DOTROW(Y8, Y0, Y1, Y2, Y3)
	DOTROW(Y9, Y4, Y5, Y6, Y7)
	DOTNEXT
	JNZ two

finish:
	DOTHSUM(Y0, Y1, Y2, Y3)
	DOTHSUM(Y4, Y5, Y6, Y7)
	MOVQ k+8(FP), CX
	ANDQ $3, CX
	JZ   store

tail:
	// s = fma(x[i], y[i], s) for the k mod 4 last elements, all columns at once.
	VMOVSD       (DI), X10
	VMOVHPD      (DI)(R9*1), X10, X10
	VMOVSD       (DI)(R9*2), X11
	VMOVHPD      (DI)(R10*1), X11, X11
	VINSERTF128  $1, X11, Y10, Y10
	VBROADCASTSD (SI), Y8
	VBROADCASTSD (SI)(R8*1), Y9
	VFMADD231PD  Y10, Y8, Y0
	VFMADD231PD  Y10, Y9, Y4
	ADDQ         $8, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          tail

store:
	MOVQ    out+48(FP), DX
	VMOVUPD Y0, (DX)
	CMPQ    rows+0(FP), $1
	JE      done
	MOVQ    ldo+56(FP), BX
	VMOVUPD Y4, (DX)(BX*8)

done:
	VZEROUPPER
	RET

// One coefficient of the substitution tile: unless coef[k] at SI is ±0 (a
// NaN is not skipped), broadcast it into reg and run FNMA, then step to the
// next coefficient and the next 32-wide src row. Shifting out the sign
// leaves zero bits exactly for ±0. SSTEP ends on DECQ CX so the JNZ after it
// closes the k loop.
#define SSTEP(reg, FNMA) \
	MOVQ         (SI), AX; \
	SHLQ         $1, AX;   \
	JZ           snext;    \
	VBROADCASTSD (SI), reg; \
	FNMA;                  \
snext:                     \
	ADDQ         $8, SI;   \
	ADDQ         $256, DI; \
	DECQ         CX

#define YFNMA \
	VFNMADD231PD (DI), Y8, Y0;    \
	VFNMADD231PD 32(DI), Y8, Y1;  \
	VFNMADD231PD 64(DI), Y8, Y2;  \
	VFNMADD231PD 96(DI), Y8, Y3;  \
	VFNMADD231PD 128(DI), Y8, Y4; \
	VFNMADD231PD 160(DI), Y8, Y5; \
	VFNMADD231PD 192(DI), Y8, Y6; \
	VFNMADD231PD 224(DI), Y8, Y7

#define ZFNMA \
	VFNMADD231PD (DI), Z4, Z0;    \
	VFNMADD231PD 64(DI), Z4, Z1;  \
	VFNMADD231PD 128(DI), Z4, Z2; \
	VFNMADD231PD 192(DI), Z4, Z3

// func substTileAVX2(nk int, coef, src, dst *float64, scale float64)
//
// One 32-wide panel row of a triangular substitution, eight accumulators
// Y0..Y7 loaded from dst: for k < nk ascending, unless coef[k] is ±0,
// acc = fma(−coef[k], src[32k:32k+32], acc) by VFNMADD231PD, then
// dst = acc·scale, stored once. It is axpy's x + (−l)·s bit for bit. nk ≥ 1.
TEXT ·substTileAVX2(SB), NOSPLIT, $0-40
	MOVQ    nk+0(FP), CX
	MOVQ    coef+8(FP), SI
	MOVQ    src+16(FP), DI
	MOVQ    dst+24(FP), DX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	VMOVUPD 128(DX), Y4
	VMOVUPD 160(DX), Y5
	VMOVUPD 192(DX), Y6
	VMOVUPD 224(DX), Y7

sloop:
	SSTEP(Y8, YFNMA)
	JNZ sloop

	VBROADCASTSD scale+32(FP), Y8
	VMULPD       Y8, Y0, Y0
	VMULPD       Y8, Y1, Y1
	VMULPD       Y8, Y2, Y2
	VMULPD       Y8, Y3, Y3
	VMULPD       Y8, Y4, Y4
	VMULPD       Y8, Y5, Y5
	VMULPD       Y8, Y6, Y6
	VMULPD       Y8, Y7, Y7
	VMOVUPD      Y0, (DX)
	VMOVUPD      Y1, 32(DX)
	VMOVUPD      Y2, 64(DX)
	VMOVUPD      Y3, 96(DX)
	VMOVUPD      Y4, 128(DX)
	VMOVUPD      Y5, 160(DX)
	VMOVUPD      Y6, 192(DX)
	VMOVUPD      Y7, 224(DX)
	VZEROUPPER
	RET

// func substTileAVX512(nk int, coef, src, dst *float64, scale float64)
//
// substTileAVX2 in four ZMM accumulators Z0..Z3.
TEXT ·substTileAVX512(SB), NOSPLIT, $0-40
	MOVQ    nk+0(FP), CX
	MOVQ    coef+8(FP), SI
	MOVQ    src+16(FP), DI
	MOVQ    dst+24(FP), DX
	VMOVUPD (DX), Z0
	VMOVUPD 64(DX), Z1
	VMOVUPD 128(DX), Z2
	VMOVUPD 192(DX), Z3

sloop:
	SSTEP(Z4, ZFNMA)
	JNZ sloop

	VBROADCASTSD scale+32(FP), Z4
	VMULPD       Z4, Z0, Z0
	VMULPD       Z4, Z1, Z1
	VMULPD       Z4, Z2, Z2
	VMULPD       Z4, Z3, Z3
	VMOVUPD      Z0, (DX)
	VMOVUPD      Z1, 64(DX)
	VMOVUPD      Z2, 128(DX)
	VMOVUPD      Z3, 192(DX)
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
