package mat

// CG solves the SPD system a·x = b by conjugate gradients, returning the
// solution and the iteration count. The solve is matrix-free with respect
// to factorization — only matrix-vector products with a are formed — which
// gives SNGD-family methods an O(k·m²) alternative to the O(m³) explicit
// kernel inverse when few solves per kernel are needed.
//
// Iteration stops when ‖r‖ ≤ tol·‖b‖ or after maxIter steps.
func CG(a *Dense, b []float64, tol float64, maxIter int) ([]float64, int) {
	n := a.Rows()
	if len(b) != n {
		panic("mat: CG dimension mismatch")
	}
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	bNorm := Norm2(b)
	if bNorm == 0 {
		return x, 0
	}
	rs := Dot(r, r)
	for it := 1; it <= maxIter; it++ {
		ap := MulVec(a, p)
		den := Dot(p, ap)
		if den <= 0 {
			// Loss of positive-definiteness (numerical); return the best
			// iterate so far.
			return x, it
		}
		alpha := rs / den
		for i := range x {
			x[i] += float64(alpha * p[i])
			r[i] -= float64(alpha * ap[i])
		}
		rsNew := Dot(r, r)
		if Norm2(r) <= tol*bNorm {
			return x, it
		}
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + float64(beta*p[i])
		}
		rs = rsNew
	}
	return x, maxIter
}

// CGSolveColumns solves a·X = B column-wise with CG; useful for small
// numbers of right-hand sides without factorizing a.
func CGSolveColumns(a, b *Dense, tol float64, maxIter int) *Dense {
	out := NewDense(b.Rows(), b.Cols())
	col := make([]float64, b.Rows())
	for j := 0; j < b.Cols(); j++ {
		for i := 0; i < b.Rows(); i++ {
			col[i] = b.At(i, j)
		}
		x, _ := CG(a, col, tol, maxIter)
		for i := 0; i < b.Rows(); i++ {
			out.Set(i, j, x[i])
		}
	}
	return out
}
