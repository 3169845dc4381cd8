package mat

import "math"

// FMAKernels reports that mat computes with fused multiply-add: the GEMM
// micro-kernel, axpy, Dot and its tile, and the substitution tile round
// a·b + acc once, as math.FMA does, on every machine and in every build.
func FMAKernels() bool { return true }

// dotFMA is Dot's reference: four lanes over ascending 4-groups, each a
// chain of fused multiply-adds from +0, summed ((s0+s1)+s2)+s3, then the
// len mod 4 last elements fused into that sum.
func dotFMA(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 = math.FMA(x[i], y[i], s0)
		s1 = math.FMA(x[i+1], y[i+1], s1)
		s2 = math.FMA(x[i+2], y[i+2], s2)
		s3 = math.FMA(x[i+3], y[i+3], s3)
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(x); i++ {
		s = math.FMA(x[i], y[i], s)
	}
	return s
}

// axpyFMA is axpy's reference: dst[i] = math.FMA(s, src[i], dst[i]).
func axpyFMA(dst, src []float64, s float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = math.FMA(s, src[i], dst[i])
		dst[i+1] = math.FMA(s, src[i+1], dst[i+1])
		dst[i+2] = math.FMA(s, src[i+2], dst[i+2])
		dst[i+3] = math.FMA(s, src[i+3], dst[i+3])
	}
	for ; i < n; i++ {
		dst[i] = math.FMA(s, src[i], dst[i])
	}
}
