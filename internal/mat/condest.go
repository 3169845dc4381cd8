package mat

import "math"

// Norm1 returns the 1-norm of the matrix (maximum absolute column sum). The
// shift −0 leaves every entry as it is: x + (−0) is x, +0 included.
func (m *Dense) Norm1() float64 { return m.norm1Shifted(math.Copysign(0, -1)) }

// norm1Shifted is the 1-norm of m + shift·I (m square or not) without
// forming the sum. It walks m by rows; each column sum still adds its
// entries for i ascending from +0, so it is the column walk's value.
func (m *Dense) norm1Shifted(shift float64) float64 {
	sums := GetFloats(m.cols)
	defer PutFloats(sums)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			if i == j {
				v += shift
			}
			sums[j] += math.Abs(v)
		}
	}
	var best float64
	for _, s := range sums {
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
	tmp := getFloatsRaw(n)
	for i, p := range f.piv {
		tmp[i] = x[p]
	}
	// Forward: L*y = P*b (unit lower).
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		var s float64
		for k := 0; k < i; k++ {
			s += float64(ri[k] * tmp[k])
		}
		tmp[i] -= s
	}
	// Backward: U*x = y.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		var s float64
		for k := i + 1; k < n; k++ {
			s += float64(ri[k] * tmp[k])
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
	buf := getFloatsRaw(2 * n)
	tmp, acc := buf[:n], buf[n:]
	copy(tmp, x)
	clear(acc)
	// Forward: Uᵀ y = b (Uᵀ is lower-triangular with U's diagonal), walking
	// U by rows: acc_i sums u_ki·y_k for k ascending from +0, as the dot
	// down column i did, each in its own accumulator.
	for k := 0; k < n; k++ {
		rk := f.lu.Row(k)
		yk := (tmp[k] - acc[k]) / rk[k]
		tmp[k] = yk
		tail := acc[k+1:]
		for i, u := range rk[k+1 : k+1+len(tail)] {
			tail[i] += float64(u * yk)
		}
	}
	// Backward: Lᵀ w = y (Lᵀ is unit upper-triangular).
	for i := n - 2; i >= 0; i-- {
		var s float64
		for k := i + 1; k < n; k++ {
			s += float64(f.lu.At(k, i) * tmp[k])
		}
		tmp[i] -= s
	}
	for i, p := range f.piv {
		x[p] = tmp[i]
	}
	PutFloats(buf)
}

// condEstCholesky returns the 1-norm condition estimate of the SPD matrix
// whose Cholesky factor is l (and lt = lᵀ), given the matrix's 1-norm.
// A = L·Lᵀ is symmetric, so the transpose solve of Hager's iteration reuses
// the same forward/backward substitution.
func condEstCholesky(l, lt *Dense, anorm float64) float64 {
	n := l.rows
	if n == 0 {
		return 0
	}
	solve := func(x []float64) { cholSolveVec(l, lt, x) }
	return anorm * hagerInvNorm1(n, solve, solve)
}

// cholSolveVec solves (L·Lᵀ)x = b in place for a single vector, reading L
// and then Lᵀ = lt along rows.
func cholSolveVec(l, lt *Dense, x []float64) {
	n := l.rows
	for i := 0; i < n; i++ {
		ri := l.Row(i)
		var s float64
		for k := 0; k < i; k++ {
			s += float64(ri[k] * x[k])
		}
		x[i] = (x[i] - s) / ri[i]
	}
	for i := n - 1; i >= 0; i-- {
		ri := lt.Row(i)
		var s float64
		for k := i + 1; k < n; k++ {
			s += float64(ri[k] * x[k])
		}
		x[i] = (x[i] - s) / ri[i]
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
