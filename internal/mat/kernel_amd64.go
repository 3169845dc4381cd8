//go:build !purego

package mat

// useAsm selects the assembly micro-kernels, axpy, dot tile and substitution
// tile over the pure-Go reference kernels, and useAVX512 the AVX-512 GEMM and
// substitution tiles within the assembly. Every family computes the same bits,
// so the choice is not part of a run's numerical identity; they are variables
// only so tests can force each family.
var (
	useAsm    = hasAVX2FMA()
	useAVX512 = useAsm && hasAVX512F()
)

// hasAVX2FMA reports whether the CPU has AVX2 and FMA3 and the OS saves the
// YMM state (CPUID leaves 1 and 7, XCR0 bits 1 and 2).
func hasAVX2FMA() bool {
	const fma, osxsave, avx, avx2 = 1 << 12, 1 << 27, 1 << 28, 1 << 5
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	_, b7, _, _ := cpuid(7, 0)
	return c1&(fma|osxsave|avx) == fma|osxsave|avx && b7&avx2 != 0 && xgetbv0()&6 == 6
}

// hasAVX512F reports whether the CPU has AVX512F (CPUID leaf 7 EBX bit 16)
// and the OS saves the opmask and ZMM state as well (XCR0 bits 1, 2 and 5–7).
// Only hasAVX2FMA's probe has shown leaf 7 to exist.
func hasAVX512F() bool {
	const avx512f = 1 << 16
	_, b7, _, _ := cpuid(7, 0)
	return b7&avx512f != 0 && xgetbv0()&0xe6 == 0xe6
}

//go:noescape
func kernel4x8(assign bool, kc int, a *float64, rs, cs int, b *float64, ldb int, c *float64, ldc int)

//go:noescape
func kernel4x8g(assign bool, kc int, a *float64, row, col *int, b *float64, ldb int, c *float64, ldc int)

//go:noescape
func kernel4x16(assign bool, kc int, a *float64, rs, cs int, b, c *float64, ldc int)

//go:noescape
func kernel4x16g(assign bool, kc int, a *float64, row, col *int, b, c *float64, ldc int)

//go:noescape
func axpyAVX2(dst, src []float64, s float64)

//go:noescape
func dotTileAVX2(rows, k int, x *float64, ldx int, y *float64, ldy int, out *float64, ldo int)

//go:noescape
func substTileAVX2(nk int, coef, src, dst *float64, scale float64)

//go:noescape
func substTileAVX512(nk int, coef, src, dst *float64, scale float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
