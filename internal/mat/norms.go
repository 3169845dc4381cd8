package mat

import "math"

// Norm2 returns the Euclidean norm of a vector, guarding against overflow
// by scaling with the largest magnitude element: entries up to
// ~√MaxFloat64 apart stay exact, and even ±MaxFloat64 entries produce a
// finite-or-+Inf result instead of the NaN a naive sum-of-squares yields.
// An ±Inf entry returns +Inf (never NaN from the Inf/Inf scaling ratio).
func Norm2(x []float64) float64 {
	var maxAbs float64
	for _, v := range x {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	if math.IsInf(maxAbs, 0) {
		return math.Inf(1)
	}
	var s float64
	for _, v := range x {
		r := v / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// FrobNorm returns the Frobenius norm of m.
func (m *Dense) FrobNorm() float64 { return Norm2(m.data) }

// MaxAbs returns max_ij |m_ij|.
func (m *Dense) MaxAbs() float64 {
	var d float64
	for _, v := range m.data {
		if a := math.Abs(v); a > d {
			d = a
		}
	}
	return d
}

// NumericalRank returns the paper's notion of numerical rank for a
// symmetric PSD matrix: the smallest k such that the k largest eigenvalues
// account for at least frac (e.g. 0.9) of the eigenvalue sum. Eigenvalues
// below a small floor are treated as zero.
func NumericalRank(sym *Dense, frac float64) int {
	vals, _ := SymEig(sym)
	// SymEig returns ascending order; walk from the top.
	var total float64
	for _, v := range vals {
		if v > 0 {
			total += v
		}
	}
	if total == 0 {
		return 0
	}
	var acc float64
	k := 0
	for i := len(vals) - 1; i >= 0; i-- {
		if vals[i] <= 0 {
			break
		}
		acc += vals[i]
		k++
		if acc >= frac*total {
			break
		}
	}
	return k
}
