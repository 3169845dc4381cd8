package mat

import "math"

// Norm1 returns the 1-norm of the matrix (maximum absolute column sum).
func (m *Dense) Norm1() float64 {
	var best float64
	for j := 0; j < m.cols; j++ {
		var s float64
		for i := 0; i < m.rows; i++ {
			s += math.Abs(m.At(i, j))
		}
		if s > best {
			best = s
		}
	}
	return best
}

// hagerInvNorm1 estimates ‖A⁻¹‖₁ with Hager's algorithm (the scheme behind
// LAPACK's dlacon / Higham's condest): a handful of solves with A and Aᵀ
// against probing vectors, converging on the maximizing column of A⁻¹.
// solve and solveT overwrite their argument with A⁻¹x and A⁻ᵀx.
func hagerInvNorm1(n int, solve, solveT func(x []float64)) float64 {
	if n == 0 {
		return 0
	}
	x := getFloatsRaw(n)
	defer PutFloats(x)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	var est float64
	for iter := 0; iter < 5; iter++ {
		solve(x) // x ← A⁻¹ x
		var e float64
		for _, v := range x {
			e += math.Abs(v)
		}
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return math.Inf(1)
		}
		if iter > 0 && e <= est {
			break
		}
		est = e
		// ξ = sign(A⁻¹x); z = A⁻ᵀ ξ.
		for i := range x {
			if x[i] >= 0 {
				x[i] = 1
			} else {
				x[i] = -1
			}
		}
		solveT(x)
		// Converged when ‖z‖∞ no longer beats the current probe.
		j, zmax := 0, 0.0
		for i, v := range x {
			if a := math.Abs(v); a > zmax {
				j, zmax = i, a
			}
		}
		if zmax <= est {
			break
		}
		for i := range x {
			x[i] = 0
		}
		x[j] = 1
	}
	return est
}

// Cond1 returns the Hager-style 1-norm condition estimate κ₁ ≈ ‖A‖₁‖A⁻¹‖₁
// from the factorization, given ‖A‖₁ of the factored matrix (use Norm1()
// before factoring, since the factorization clones the input). The cost is
// a few O(n²) solves — negligible next to the O(n³) factorization.
func (f *LU) Cond1(anorm float64) float64 {
	n := f.lu.rows
	if n == 0 {
		return 0
	}
	inv := hagerInvNorm1(n,
		func(x []float64) { f.solveVec(x) },
		func(x []float64) { f.solveVecT(x) })
	return anorm * inv
}

// solveVec solves a*x = b in place for a single vector.
func (f *LU) solveVec(x []float64) {
	n := f.lu.rows
	tmp := GetFloats(n)
	for i, p := range f.piv {
		tmp[i] = x[p]
	}
	// Forward: L*y = P*b (unit lower).
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		var s float64
		for k := 0; k < i; k++ {
			s += ri[k] * tmp[k]
		}
		tmp[i] -= s
	}
	// Backward: U*x = y.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		var s float64
		for k := i + 1; k < n; k++ {
			s += ri[k] * tmp[k]
		}
		tmp[i] = (tmp[i] - s) / ri[i]
	}
	copy(x, tmp)
	PutFloats(tmp)
}

// solveVecT solves aᵀ*x = b in place for a single vector: with P*a = L*U,
// aᵀ = Uᵀ Lᵀ P, so solve Uᵀy = b (forward), Lᵀw = y (backward, unit
// diagonal), then undo the permutation x = Pᵀw.
func (f *LU) solveVecT(x []float64) {
	n := f.lu.rows
	tmp := GetFloats(n)
	copy(tmp, x)
	// Forward: Uᵀ y = b (Uᵀ is lower-triangular with U's diagonal).
	for i := 0; i < n; i++ {
		var s float64
		for k := 0; k < i; k++ {
			s += f.lu.At(k, i) * tmp[k]
		}
		tmp[i] = (tmp[i] - s) / f.lu.At(i, i)
	}
	// Backward: Lᵀ w = y (Lᵀ is unit upper-triangular).
	for i := n - 2; i >= 0; i-- {
		var s float64
		for k := i + 1; k < n; k++ {
			s += f.lu.At(k, i) * tmp[k]
		}
		tmp[i] -= s
	}
	for i, p := range f.piv {
		x[p] = tmp[i]
	}
	PutFloats(tmp)
}

// CondEstCholesky returns the 1-norm condition estimate of the SPD matrix
// whose Cholesky factor is l, given the matrix's 1-norm. A = L·Lᵀ is
// symmetric, so the transpose solve of Hager's iteration reuses the same
// forward/backward substitution.
func CondEstCholesky(l *Dense, anorm float64) float64 {
	n := l.rows
	if n == 0 {
		return 0
	}
	solve := func(x []float64) { cholSolveVec(l, x) }
	return anorm * hagerInvNorm1(n, solve, solve)
}

// cholSolveVec solves (L·Lᵀ)x = b in place for a single vector.
func cholSolveVec(l *Dense, x []float64) {
	n := l.rows
	for i := 0; i < n; i++ {
		ri := l.Row(i)
		var s float64
		for k := 0; k < i; k++ {
			s += ri[k] * x[k]
		}
		x[i] = (x[i] - s) / ri[i]
	}
	for i := n - 1; i >= 0; i-- {
		var s float64
		for k := i + 1; k < n; k++ {
			s += l.At(k, i) * x[k]
		}
		x[i] = (x[i] - s) / l.At(i, i)
	}
}

// ScrubNonFinite zeroes every NaN/±Inf entry of data and returns how many
// entries were scrubbed. The numerical-health layers use it to keep one
// poisoned coordinate from spreading through a whole update.
func ScrubNonFinite(data []float64) int {
	n := 0
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			data[i] = 0
			n++
		}
	}
	return n
}

// ScrubNonFinite zeroes non-finite entries of the matrix in place,
// returning the scrub count.
func (m *Dense) ScrubNonFinite() int { return ScrubNonFinite(m.data) }

// AllFinite reports whether every entry of data is finite.
func AllFinite(data []float64) bool {
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// IsFinite reports whether every entry of the matrix is finite.
func (m *Dense) IsFinite() bool { return AllFinite(m.data) }
