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
	if a.rows != a.cols {
		panic("mat: Cholesky needs a square matrix")
	}
	n := a.rows
	l := NewDense(n, n)
	col := getFloatsRaw(n)
	defer PutFloats(col)
	for j := 0; j < n; j++ {
		var d float64
		lrowJ := l.Row(j)
		d = a.At(j, j) - Dot(lrowJ[:j], lrowJ[:j])
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d = %g)", ErrNotSPD, j, d)
		}
		ljj := math.Sqrt(d)
		lrowJ[j] = ljj
		inv := 1 / ljj
		// The column sweep is one shared vector, row j, against the rows
		// below it: col[i-j-1] = Dot(lrowI[:j], lrowJ[:j]).
		dotBlock(col, n, lrowJ, 0, 1, l.data[(j+1)*n:], n, n-j-1, j)
		for i := j + 1; i < n; i++ {
			l.data[i*n+j] = (a.At(i, j) - col[i-j-1]) * inv
		}
	}
	return l, nil
}

// SolveCholesky solves a*x = b given the Cholesky factor L of a, for each
// column of b. b is not modified.
func SolveCholesky(l, b *Dense) *Dense {
	n := l.rows
	if b.rows != n {
		panic("mat: SolveCholesky dimension mismatch")
	}
	x := b.Clone()
	// Forward substitution L*y = b, column by column over x in place.
	for i := 0; i < n; i++ {
		li := l.Row(i)
		xi := x.Row(i)
		for k := 0; k < i; k++ {
			if li[k] != 0 {
				axpy(xi, x.Row(k), -li[k])
			}
		}
		inv := 1 / li[i]
		for c := range xi {
			xi[c] *= inv
		}
	}
	// Back substitution Lᵀ*x = y.
	for i := n - 1; i >= 0; i-- {
		xi := x.Row(i)
		for k := i + 1; k < n; k++ {
			if lki := l.At(k, i); lki != 0 {
				axpy(xi, x.Row(k), -lki)
			}
		}
		inv := 1 / l.At(i, i)
		for c := range xi {
			xi[c] *= inv
		}
	}
	return x
}

// InvSPD inverts a symmetric positive-definite matrix via Cholesky.
func InvSPD(a *Dense) (*Dense, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return SolveCholesky(l, Identity(a.rows)), nil
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
// estimate of the matrix that was finally inverted. The error (wrapping
// ErrIllConditioned) is non-nil only when no damping stabilized the solve;
// no input can make it panic.
func InvSPDDampedChecked(a *Dense, alpha float64) (inv *Dense, usedDamp float64, retries int, cond float64, err error) {
	damp := alpha
	for k := 0; k < maxDampedAttempts; k++ {
		c := a.Clone().AddDiag(damp)
		l, cerr := Cholesky(c)
		if cerr == nil {
			cond = CondEstCholesky(l, c.Norm1())
			numerics.ObserveCondition("mat.invspd", cond)
			return SolveCholesky(l, Identity(a.rows)), damp, k, cond, nil
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
	inv, _, retries, _, err := InvSPDDampedChecked(a, alpha)
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
// path allocates nothing.
func factorLUInPlace(lu *Dense, piv []int) (LU, error) {
	n := lu.rows
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivot.
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
				axpy(rowI[k+1:], rowK[k+1:], -f)
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
// already hold the row-permuted right-hand side.
func (f *LU) solveInPlace(x *Dense) {
	n := f.lu.rows
	// Forward: L*y = P*b (unit lower).
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		xi := x.Row(i)
		for k := 0; k < i; k++ {
			if ri[k] != 0 {
				axpy(xi, x.Row(k), -ri[k])
			}
		}
	}
	// Backward: U*x = y.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		xi := x.Row(i)
		for k := i + 1; k < n; k++ {
			if ri[k] != 0 {
				axpy(xi, x.Row(k), -ri[k])
			}
		}
		inv := 1 / ri[i]
		for c := range xi {
			xi[c] *= inv
		}
	}
}

// Inv inverts a general square matrix via LU.
func Inv(a *Dense) (*Dense, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(Identity(a.rows)), nil
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
