//go:build !purego

package mat

// useAsm selects the AVX2 micro-kernel, axpy and dot tile over the pure-Go
// reference kernels. Both compute the same bits in either kernel family, so
// the choice is not part of a run's numerical identity; it is a variable only
// so tests can force the reference.
var useAsm = hasAVX2FMA()

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

//go:noescape
func kernel4x8(fma, assign bool, kc int, a *float64, rs, cs int, b, c *float64, ldc int)

//go:noescape
func kernel4x8g(fma, assign bool, kc int, a *float64, row, col *int, b, c *float64, ldc int)

//go:noescape
func axpyAVX2(fma bool, dst, src []float64, s float64)

//go:noescape
func dotTileAVX2(fma bool, rows, k int, x *float64, ldx int, y *float64, ldy int, out *float64, ldo int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
