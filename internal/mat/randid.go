package mat

import (
	"math"
	"math/bits"
)

// SketchKind selects the random projection used by the randomized
// interpolative decomposition.
type SketchKind int

const (
	// SketchGauss compresses with a dense Gaussian projection: one
	// m×n · n×k GEMM, O(mnk). The projection is oblivious and the
	// best-understood choice (Biagioni & Beylkin, reference [33]).
	SketchGauss SketchKind = iota
	// SketchSRHT compresses with a subsampled randomized Hadamard
	// transform: a ±1 sign-flip diagonal, a fast Walsh–Hadamard transform
	// per row, and a uniform subsample of k transformed columns —
	// O(mn log n) total, independent of the sketch width k.
	SketchSRHT
)

// nextPow2 returns the smallest power of two >= n, for n >= 1.
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// fwht applies the (unnormalized) fast Walsh–Hadamard transform in place.
// len(x) must be a power of two; callers scale by 1/√len to make the
// transform orthonormal.
func fwht(x []float64) {
	n := len(x)
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = a+b, a-b
			}
		}
	}
}

// srhtSketchInto fills y (m×k) with the SRHT sketch of q's columns:
// y = q·D·H·S/√npad, where D is a random ±1 diagonal, H the npad-point
// Walsh–Hadamard transform (npad = next power of two ≥ n, with zero
// padding), and S selects k of the npad transformed columns uniformly
// without replacement. Each row costs O(npad·log npad), so the sketch is
// O(m·n·log n) versus the Gaussian projection's O(m·n·k) GEMM.
func srhtSketchInto(y *Dense, rng *RNG, q *Dense, k int) {
	m, n := q.Dims()
	npad := nextPow2(n)
	signs := getFloatsRaw(n)
	for j := range signs {
		if rng.Uint64()&1 == 0 {
			signs[j] = 1
		} else {
			signs[j] = -1
		}
	}
	// Partial Fisher–Yates: the first k entries of idx become the sampled
	// transformed-column indices.
	idx := getInts(npad)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(npad-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	buf := getFloatsRaw(npad)
	scale := 1 / math.Sqrt(float64(npad))
	for i := 0; i < m; i++ {
		row := q.Row(i)
		for j := 0; j < n; j++ {
			buf[j] = signs[j] * row[j]
		}
		for j := n; j < npad; j++ {
			buf[j] = 0
		}
		fwht(buf)
		dst := y.Row(i)
		for l := 0; l < k; l++ {
			dst[l] = buf[idx[l]] * scale
		}
	}
	PutFloats(buf)
	putInts(idx)
	PutFloats(signs)
}

// sketchColsInto fills y (m×k) with a k-column sketch of q's columns and
// returns it: row selection on q is column selection on qᵀ, and sketching
// q's columns keeps the row geometry needed to pick representative rows.
func sketchColsInto(y *Dense, rng *RNG, q *Dense, kind SketchKind) *Dense {
	if kind == SketchSRHT {
		srhtSketchInto(y, rng, q, y.cols)
		return y
	}
	omega := getDenseRaw(q.cols, y.cols)
	od := omega.Data()
	for i := range od {
		od[i] = rng.Norm()
	}
	MulInto(y, q, omega)
	PutDense(omega)
	return y
}

// RandomizedIDInto computes a rank-r row interpolative decomposition of q
// through a random sketch, without allocating in steady state: instead of
// pivoting on the full n columns of qᵀ, q is first compressed to
// m×(r+oversample) with the selected sketch, and the pivoted QR runs on
// the sketch. For m×m Gram matrices this reduces the ID cost from O(m²r)
// to O(m·k·r) plus the sketch itself (one GEMM for SketchGauss, an
// O(mn log n) transform for SketchSRHT).
//
// p and s are persistent workspaces following the EnsureDense contract:
// pass the previous call's returns (nil on first use) and replace them
// with the returned values. On return p is m×r' and s has length r' with
// q ≈ p·q[s,:], where r' = min(r, m, n) clamped at 0; oversample is
// clamped below at 1.
//
// cond is a cheap condition estimate of the interpolation basis: the
// ratio |R₀₀|/|R_{r'-1,r'-1}| of the sketch's pivoted-QR diagonal
// (non-increasing under column pivoting, so cond ≥ 1). +Inf flags a
// numerically rank-deficient sketch; callers compare against
// numerics.CondLimit() before trusting the factorization.
func RandomizedIDInto(p *Dense, s []int, rng *RNG, q *Dense, r, oversample int, kind SketchKind) (pOut *Dense, sOut []int, cond float64) {
	m, n := q.Dims()
	r = min(r, min(m, n))
	if r <= 0 {
		p = EnsureDense(p, m, 0)
		return p, s[:0], 1
	}
	if oversample < 1 {
		oversample = 1
	}
	k := r + oversample
	if k > n {
		k = n
	}
	y := sketchColsInto(getDenseRaw(m, k), rng, q, kind)
	// r pivoted steps on the rows of y rank the rows of q by their sketched
	// leverage; the factorization takes ownership of y.
	f := factorRowsInPlace(y, r)
	d0 := math.Abs(y.At(0, 0))
	dr := math.Abs(y.At(r-1, r-1))
	switch {
	case math.IsNaN(d0) || math.IsNaN(dr):
		cond = math.NaN()
	case d0 == 0 || dr == 0 || math.IsInf(d0, 0):
		cond = math.Inf(1)
	default:
		cond = d0 / dr
	}
	// Interpolation coefficients against the selected rows are computed on
	// the sketch, giving q ≈ P·q[S,:] in the sketched geometry.
	p, s = f.idInto(p, s, r)
	f.put()
	return p, s, cond
}
