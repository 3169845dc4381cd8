//go:build !amd64 || purego

package mat

// No assembly in this build: the pure-Go reference kernels are the only
// implementation, and the stubs below are never reached.
var useAsm, useAVX512 = false, false

func kernel4x8(assign bool, kc int, a *float64, rs, cs int, b *float64, ldb int, c *float64, ldc int) {
	panic("mat: no assembly kernel in this build")
}

func kernel4x8g(assign bool, kc int, a *float64, row, col *int, b *float64, ldb int, c *float64, ldc int) {
	panic("mat: no assembly kernel in this build")
}

func kernel4x16(assign bool, kc int, a *float64, rs, cs int, b, c *float64, ldc int) {
	panic("mat: no assembly kernel in this build")
}

func kernel4x16g(assign bool, kc int, a *float64, row, col *int, b, c *float64, ldc int) {
	panic("mat: no assembly kernel in this build")
}

func axpyAVX2(dst, src []float64, s float64) {
	panic("mat: no assembly kernel in this build")
}

func dotTileAVX2(rows, k int, x *float64, ldx int, y *float64, ldy int, out *float64, ldo int) {
	panic("mat: no assembly kernel in this build")
}

func substTileAVX2(nk int, coef, src, dst *float64, scale float64) {
	panic("mat: no assembly kernel in this build")
}

func substTileAVX512(nk int, coef, src, dst *float64, scale float64) {
	panic("mat: no assembly kernel in this build")
}
