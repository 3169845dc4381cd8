package mat

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numerics"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot.
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// ErrSingular is returned when an LU factorization encounters an exactly
// zero pivot.
var ErrSingular = errors.New("mat: matrix is singular")

// ErrIllConditioned is returned when a solve could not be stabilized
// within the bounded damping-escalation budget — the matrix is numerically
// singular (or poisoned by non-finite entries) beyond what Levenberg-
// Marquardt escalation can repair.
var ErrIllConditioned = errors.New("mat: matrix is numerically ill-conditioned beyond repair")

// Cholesky computes the lower-triangular L with a = L*Lᵀ for a symmetric
// positive-definite matrix. The strictly upper part of the result is zero.
func Cholesky(a *Dense) (*Dense, error) {
	l := NewDense(a.rows, a.rows)
	// −0 is the additive identity: x + (−0) is x for every x, +0 included.
	if err := choleskyInto(l, a, math.Copysign(0, -1)); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyInto factors a + damp·I into l (n×n, fully overwritten) without
// forming the sum: every pivot reads a's diagonal entry plus damp, rounded
// once, as AddDiag would have stored it. Only a's lower triangle is read.
func choleskyInto(l, a *Dense, damp float64) error {
	if a.rows != a.cols {
		panic("mat: Cholesky needs a square matrix")
	}
	n := a.rows
	col := getFloatsRaw(n)
	defer PutFloats(col)
	for j := 0; j < n; j++ {
		lrowJ := l.Row(j)
		d := (a.At(j, j) + damp) - Dot(lrowJ[:j], lrowJ[:j])
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotSPD, j, d)
		}
		ljj := math.Sqrt(d)
		lrowJ[j] = ljj
		clear(lrowJ[j+1:])
		inv := 1 / ljj
		// The column sweep is one shared vector, row j, against the rows
		// below it: col[i-j-1] = Dot(lrowI[:j], lrowJ[:j]).
		dotBlock(col, n, lrowJ, 0, 1, l.data[(j+1)*n:], n, n-j-1, j)
		for i := j + 1; i < n; i++ {
			l.data[i*n+j] = (a.At(i, j) - col[i-j-1]) * inv
		}
	}
	return nil
}

// substW is the panel width of the triangular solves and the LU's column
// block: 32 columns, a panel row four ZMM or eight YMM accumulators — the
// most a k-ascending row chain can keep in flight on two FMA ports.
const substW = 32

// invCholInto sets dst = (L·Lᵀ)⁻¹ from a Cholesky factor l (finite below the
// diagonal, positive on it, as Cholesky leaves it) and lt = lᵀ, bit for bit
// as the forward then back substitution of L·Lᵀ·X = I row by row — for row i
// and k ascending, skipping l_ik = ±0, x_i += (−l_ik)·x_k, then x_i *= 1/l_ii.
// Columns are independent, so it runs one substW-column panel at a time,
// panel rows in pooled scratch. Forward substitution for panel c₀ starts at
// row c₀ with k ≥ c₀: column c of L⁻¹ is +0 above row c, and a finite l_ik
// times +0 only ever added ±0 to a +0 or a 1, which keeps it. Back
// substitution reads its coefficients along rows of lt. A narrow last
// panel runs at full width; its padding columns stay ±0 and are not copied.
func invCholInto(dst, l, lt *Dense) {
	n := l.rows
	p := getFloatsRaw(n * substW)
	defer PutFloats(p)
	for c0 := 0; c0 < n; c0 += substW {
		clear(p)
		w := min(substW, n-c0)
		for j := 0; j < w; j++ {
			p[(c0+j)*substW+j] = 1
		}
		for i := c0; i < n; i++ {
			substRow(l.data[i*n+c0:i*n+i], p[c0*substW:], p[i*substW:], 1/l.data[i*n+i])
		}
		for i := n - 1; i >= 0; i-- {
			substRow(lt.data[i*n+i+1:(i+1)*n], p[(i+1)*substW:], p[i*substW:], 1/l.data[i*n+i])
		}
		for i := 0; i < n; i++ {
			copy(dst.data[i*n+c0:i*n+c0+w], p[i*substW:])
		}
	}
}

// substRow sets the panel row dst[:substW] = (dst − Σ_k coef[k]·src_k)·scale,
// src_k = src[k*substW:][:substW], for k ascending, skipping a coefficient
// that is ±0.
func substRow(coef, src, dst []float64, scale float64) {
	if useAsm && len(coef) > 0 {
		// The assembly checks no bounds.
		_, _ = src[len(coef)*substW-1], dst[substW-1]
		if useAVX512 {
			substTileAVX512(len(coef), &coef[0], &src[0], &dst[0], scale)
		} else {
			substTileAVX2(len(coef), &coef[0], &src[0], &dst[0], scale)
		}
		return
	}
	substRef(coef, src, (*[substW]float64)(dst), scale)
}

// substRef is the substitution tile in Go: the implementation without the
// assembly and the oracle it is tested against. It walks the row in groups of
// eight so the accumulators stay in registers. math.FMA(−l, s, x) is axpy's
// x + (−l)·s bit for bit.
func substRef(coef, src []float64, dst *[substW]float64, scale float64) {
	for j := 0; j < substW; j += 8 {
		x0, x1, x2, x3, x4, x5, x6, x7 := dst[j], dst[j+1], dst[j+2], dst[j+3], dst[j+4], dst[j+5], dst[j+6], dst[j+7]
		for k, c := range coef {
			if c == 0 {
				continue
			}
			s := (*[8]float64)(src[k*substW+j:])
			x0, x1, x2, x3 = math.FMA(-c, s[0], x0), math.FMA(-c, s[1], x1), math.FMA(-c, s[2], x2), math.FMA(-c, s[3], x3)
			x4, x5, x6, x7 = math.FMA(-c, s[4], x4), math.FMA(-c, s[5], x5), math.FMA(-c, s[6], x6), math.FMA(-c, s[7], x7)
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = x0*scale, x1*scale, x2*scale, x3*scale
		dst[j+4], dst[j+5], dst[j+6], dst[j+7] = x4*scale, x5*scale, x6*scale, x7*scale
	}
}

// InvSPD inverts a symmetric positive-definite matrix via Cholesky.
func InvSPD(a *Dense) (*Dense, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	lt := l.TInto(getDenseRaw(a.rows, a.rows))
	defer PutDense(lt)
	inv := NewDense(a.rows, a.rows)
	invCholInto(inv, l, lt)
	return inv, nil
}

// maxDampedAttempts bounds the Levenberg-Marquardt damping escalation of
// the checked damped solves. 40 decades of growth exhaust any finite
// input's dynamic range, so hitting the bound means the matrix is poisoned
// (non-finite) rather than merely stiff.
const maxDampedAttempts = 40

// InvSPDDampedChecked inverts (a + alpha*I) via Cholesky with bounded
// Levenberg-Marquardt damping escalation: on an indefinite factorization
// the damping grows by decades until the factorization succeeds or the
// attempt budget is exhausted. It returns the inverse, the damping
// actually used, the number of escalation retries, and a condition
// estimate of the matrix that was finally inverted. The inverse is written
// into dst (a.Rows() square, not aliasing a) or, when dst is nil, into a
// new matrix; with a dst every intermediate is pooled and a warmed call
// allocates nothing. The error (wrapping ErrIllConditioned) is non-nil only
// when no damping stabilized the solve, and dst is then untouched; no input
// can make it panic.
func InvSPDDampedChecked(dst, a *Dense, alpha float64) (inv *Dense, usedDamp float64, retries int, cond float64, err error) {
	n := a.rows
	if dst != nil {
		if dst.rows != n || dst.cols != n {
			panic("mat: InvSPDDampedChecked destination dimension mismatch")
		}
		checkNoAlias("InvSPDDampedChecked", dst, a)
	}
	l, lt := getDenseRaw(n, n), getDenseRaw(n, n)
	defer PutDense(l)
	defer PutDense(lt)
	damp := alpha
	for k := 0; k < maxDampedAttempts; k++ {
		if choleskyInto(l, a, damp) == nil {
			l.TInto(lt)
			cond = condEstCholesky(l, lt, a.norm1Shifted(damp))
			numerics.ObserveCondition("mat.invspd", cond)
			if dst == nil {
				dst = NewDense(n, n)
			}
			invCholInto(dst, l, lt)
			return dst, damp, k, cond, nil
		}
		if damp == 0 {
			damp = 1e-8
		} else {
			damp *= 10
		}
	}
	return nil, damp, maxDampedAttempts, math.Inf(1),
		fmt.Errorf("%w (damped SPD inverse, %d attempts, damping reached %g)",
			ErrIllConditioned, maxDampedAttempts, damp)
}

// InvSPDDamped inverts (a + alpha*I) via Cholesky with bounded damping
// escalation — the standard behaviour second-order optimizers need from a
// damped solve. When even maximal damping cannot stabilize the solve (the
// input is non-finite), it degrades to the diagonal (Jacobi) pseudo-inverse
// and records the fallback, so the caller always receives a finite,
// usable matrix: this function never panics. Callers that need to steer
// their own degradation ladder use InvSPDDampedChecked instead.
func InvSPDDamped(a *Dense, alpha float64) *Dense {
	inv, _, retries, _, err := InvSPDDampedChecked(nil, a, alpha)
	numerics.AddRetries("mat.invspd", retries)
	if err == nil {
		return inv
	}
	numerics.RecordFallback("mat.invspd", numerics.RungDiagonal, err.Error())
	return DiagInvDamped(a, alpha)
}

// DiagInvDamped returns the diagonal (Jacobi) pseudo-inverse of
// (a + alpha*I): off-diagonals are dropped and each diagonal entry is
// inverted with a floor so the result is always finite. This is the
// last-but-one rung of the degradation ladder — a crude but safe
// preconditioner when the full matrix cannot be inverted.
func DiagInvDamped(a *Dense, alpha float64) *Dense {
	n := a.rows
	out := NewDense(n, n)
	for i := 0; i < n; i++ {
		d := math.Abs(a.At(i, i)) + alpha
		if math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
			d = 1
		}
		out.Set(i, i, 1/d)
	}
	return out
}

// LU holds a row-pivoted LU factorization: P*a = L*U packed into lu.
type LU struct {
	lu   *Dense
	piv  []int
	sign int
}

// FactorLU computes the LU factorization of a with partial pivoting.
func FactorLU(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		panic("mat: FactorLU needs a square matrix")
	}
	f, err := factorLUInPlace(a.Clone(), make([]int, a.rows))
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// factorLUInPlace factors lu destructively using the caller's pivot
// storage, returning the factorization by value so the pooled inversion
// path allocates nothing. It is right-looking, blocked by substW columns,
// and bit for bit the unblocked elimination: element (i, j) receives
// x + (−l_ik)·u_kj for k ascending, skipping l_ik = ±0, each rounded as
// axpy rounds it — in the panel and in U₁₂ by axpy itself, in A₂₂ by the
// substitution tile (x·1 is exact). Row swaps move whole rows, their
// multipliers and pending updates with them, and do no arithmetic.
func factorLUInPlace(lu *Dense, piv []int) (LU, error) {
	n := lu.rows
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	// U₁₂'s packed block, then a padded row for a narrow last block.
	panel := GetFloats(substW*substW + substW)
	defer PutFloats(panel)
	pad := panel[substW*substW:]
	for k0 := 0; k0 < n; k0 += substW {
		k1 := min(k0+substW, n)
		for k := k0; k < k1; k++ {
			// Partial pivot over the whole column.
			p, maxAbs := k, math.Abs(lu.At(k, k))
			for i := k + 1; i < n; i++ {
				if v := math.Abs(lu.At(i, k)); v > maxAbs {
					p, maxAbs = i, v
				}
			}
			if maxAbs == 0 {
				return LU{}, fmt.Errorf("%w (column %d)", ErrSingular, k)
			}
			if p != k {
				rk, rp := lu.Row(k), lu.Row(p)
				for j := range rk {
					rk[j], rp[j] = rp[j], rk[j]
				}
				piv[k], piv[p] = piv[p], piv[k]
				sign = -sign
			}
			pivVal := lu.At(k, k)
			rowK := lu.Row(k)
			for i := k + 1; i < n; i++ {
				rowI := lu.Row(i)
				f := rowI[k] / pivVal
				rowI[k] = f
				if f != 0 {
					axpy(rowI[k+1:k1], rowK[k+1:k1], -f)
				}
			}
		}
		// U₁₂: the panel rows' trailing columns, by the panel's unit lower L₁₁.
		for k := k0 + 1; k < k1; k++ {
			rowK := lu.Row(k)
			for m := k0; m < k; m++ {
				if l := rowK[m]; l != 0 {
					axpy(rowK[k1:], lu.Row(m)[k1:], -l)
				}
			}
		}
		// A₂₂ −= L₂₁·U₁₂, one packed substW-column block of U₁₂ at a time.
		for j0 := k1; j0 < n; j0 += substW {
			w := min(substW, n-j0)
			for m := k0; m < k1; m++ {
				copy(panel[(m-k0)*substW:(m-k0)*substW+w], lu.Row(m)[j0:])
			}
			for i := k1; i < n; i++ {
				ri := lu.Row(i)
				if w == substW {
					substRow(ri[k0:k1], panel, ri[j0:], 1)
					continue
				}
				copy(pad, ri[j0:])
				substRow(ri[k0:k1], panel, pad, 1)
				copy(ri[j0:], pad[:w])
			}
		}
	}
	return LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves a*x = b for each column of b.
func (f *LU) Solve(b *Dense) *Dense {
	n := f.lu.rows
	if b.rows != n {
		panic("mat: LU.Solve dimension mismatch")
	}
	x := NewDense(n, b.cols)
	for i, p := range f.piv {
		copy(x.Row(i), b.Row(p))
	}
	f.solveInPlace(x)
	return x
}

// solveInPlace runs the forward/backward substitution on x, which must
// already hold the row-permuted right-hand side, bit for bit the row-wise
// substitution: for row i and k ascending, skipping a coefficient that is
// ±0, x_i += (−l_ik)·x_k (L unit lower, so ·1 after), then
// x_i += (−u_ik)·x_k and x_i *= 1/u_ii. Columns are independent, so it runs
// one substW-column panel of x at a time in pooled scratch, as invCholInto
// does; a narrow last panel's padding columns are not copied back.
func (f *LU) solveInPlace(x *Dense) {
	n, m := f.lu.rows, x.cols
	lu := f.lu.data
	p := GetFloats(n * substW)
	defer PutFloats(p)
	for c0 := 0; c0 < m; c0 += substW {
		w := min(substW, m-c0)
		for i := 0; i < n; i++ {
			copy(p[i*substW:i*substW+w], x.data[i*m+c0:])
		}
		for i := 1; i < n; i++ {
			substRow(lu[i*n:i*n+i], p, p[i*substW:], 1)
		}
		for i := n - 1; i >= 0; i-- {
			substRow(lu[i*n+i+1:(i+1)*n], p[(i+1)*substW:], p[i*substW:], 1/lu[i*n+i])
		}
		for i := 0; i < n; i++ {
			copy(x.data[i*m+c0:i*m+c0+w], p[i*substW:])
		}
	}
}

// SolveCondInto solves a·X = b into dst (both a.Rows()×b.Cols()) via LU
// with every intermediate recycled through the pool, plus numerical
// health: it computes the Hager 1-norm condition estimate of a from the LU
// factorization (a few O(n²) solves) before running the substitution,
// records it on the numerics monitor, and reports it to the caller so
// degradation ladders can treat a technically-successful but hopelessly
// ill-conditioned factorization as a failure. dst must alias neither
// operand. On error, cond is +Inf and dst is unspecified.
func SolveCondInto(dst, a, b *Dense) (cond float64, err error) {
	if a.rows != a.cols {
		panic("mat: SolveCondInto needs a square matrix")
	}
	if b.rows != a.rows || dst.rows != b.rows || dst.cols != b.cols {
		panic("mat: SolveCondInto dimension mismatch")
	}
	checkNoAlias("SolveCondInto", dst, a, b)
	anorm := a.Norm1()
	n := a.rows
	lu := getDenseRaw(n, n)
	defer PutDense(lu)
	lu.CopyFrom(a)
	piv := getInts(n)
	defer putInts(piv)
	f, err := factorLUInPlace(lu, piv)
	if err != nil {
		return math.Inf(1), err
	}
	cond = f.Cond1(anorm)
	numerics.ObserveCondition("mat.inv", cond)
	// dst starts as the row-permuted right-hand side (Solve's copy step),
	// then the substitution runs in place.
	for i, p := range f.piv {
		copy(dst.Row(i), b.Row(p))
	}
	f.solveInPlace(dst)
	return cond, nil
}

// InvCondInto is SolveCondInto against the identity: dst = a⁻¹ with the
// same condition estimate and error contract. Consumers that only need
// a⁻¹·b should solve for it directly — O(n²k) after the factorization
// instead of O(n³), and backward stable.
func InvCondInto(dst, a *Dense) (cond float64, err error) {
	if a.rows != a.cols {
		panic("mat: InvCondInto needs a square matrix")
	}
	if dst.rows != a.rows || dst.cols != a.cols {
		panic("mat: InvCondInto destination dimension mismatch")
	}
	eye := GetDense(a.rows, a.rows)
	defer PutDense(eye)
	for i := 0; i < a.rows; i++ {
		eye.data[i*a.rows+i] = 1
	}
	return SolveCondInto(dst, a, eye)
}

// Solve solves a*x = b via LU for a general square a.
func Solve(a, b *Dense) (*Dense, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
