package mat

import (
	"math"
	"os"
	"sync/atomic"
)

// fmaKernels selects the math.FMA-based kernels. The family is part of a
// run's numerical identity: fused multiply-add rounds once where mul+add
// rounds twice, so the two families differ in the last ulp. The default is
// mul+add on every machine and in every process — a restarted daemon or a
// second cluster member computes the same bits as the first without being
// told to; HYLO_FMA=1 opts a process into the fused family. Processes that
// must agree bit-for-bit but may have been started with different
// environments (the multi-process transport's ranks) take the
// coordinator's family through the generation-start handshake via
// SetFMAKernels.
var fmaKernels atomic.Bool

func init() { fmaKernels.Store(os.Getenv("HYLO_FMA") == "1") }

// fmaEnabled reports whether the fused-multiply-add kernel family is
// active. An atomic load so the transport may conform the profile while
// compute goroutines are running; the cost is noise next to any kernel's
// inner loop.
func fmaEnabled() bool { return fmaKernels.Load() }

// FMAKernels reports the active kernel family: true when the fused
// multiply-add variants are in use. Part of the process's numerics
// profile — distributed ranks must agree on it for bit-identical results.
func FMAKernels() bool { return fmaEnabled() }

// SetFMAKernels selects the kernel family, overriding the environment's
// choice. The multi-process transport calls this when a generation
// starts so every rank computes with the coordinator's kernels; results
// of concurrent in-flight kernels are unspecified, so callers should
// conform the profile at a compute quiescent point (rendezvous).
func SetFMAKernels(on bool) { fmaKernels.Store(on) }

// dotFMA is Dot with fused multiply-adds (same 4-lane association order).
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

// axpyFMA is axpy with fused multiply-adds.
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
