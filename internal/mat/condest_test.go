package mat

import (
	"errors"
	"math"
	"testing"
)

func TestNorm1(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, -2, 3, 4})
	// Column sums: |1|+|3| = 4, |-2|+|4| = 6.
	if got := m.Norm1(); got != 6 {
		t.Fatalf("Norm1 = %v; want 6", got)
	}
	if got := NewDense(0, 0).Norm1(); got != 0 {
		t.Fatalf("Norm1 of empty = %v; want 0", got)
	}
}

// The Hager estimate is exact for diagonal matrices: κ₁(diag(1, 1e-8)) = 1e8.
func TestLUCond1KnownDiagonal(t *testing.T) {
	a := NewDense(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1e-4)
	a.Set(2, 2, 1e-8)
	anorm := a.Norm1()
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	cond := f.Cond1(anorm)
	if cond < 1e7 || cond > 1e9 {
		t.Fatalf("Cond1 = %g; want within a factor of 10 of 1e8", cond)
	}
}

// On a random well-conditioned SPD matrix the estimate must land within a
// small factor of the true κ₁ computed from the explicit inverse.
func TestCondEstCholeskyMatchesExplicitInverse(t *testing.T) {
	rng := NewRNG(11)
	a := RandSPD(rng, 8, 0.5)
	anorm := a.Norm1()
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	est := condEstCholesky(l, l.T(), anorm)
	inv, err := InvSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	truth := anorm * inv.Norm1()
	// Hager's estimate is a lower bound that is almost always within a
	// small factor; 10× headroom keeps this test robust.
	if est > truth*1.01 || est < truth/10 {
		t.Fatalf("condEstCholesky = %g; true κ₁ = %g", est, truth)
	}
	if est < 1 {
		t.Fatalf("condition estimate %g below 1", est)
	}
}

func TestInvCondInto(t *testing.T) {
	rng := NewRNG(5)
	a := RandSPD(rng, 6, 1)
	dst := NewDense(6, 6)
	cond, err := InvCondInto(dst, a)
	if err != nil {
		t.Fatal(err)
	}
	if cond < 1 || math.IsInf(cond, 0) {
		t.Fatalf("cond = %g; want finite ≥ 1", cond)
	}
	if d := MaxAbsDiff(Mul(a, dst), Identity(6)); d > 1e-8 {
		t.Fatalf("A·A⁻¹ off identity by %g", d)
	}

	// A singular input must produce a typed error and an infinite estimate,
	// never a panic.
	sing := NewDense(3, 3)
	sing.Fill(1) // rank 1
	cond, err = InvCondInto(NewDense(3, 3), sing)
	if err == nil {
		t.Fatal("singular input: expected error")
	}
	if !math.IsInf(cond, 1) {
		t.Fatalf("singular input: cond = %g; want +Inf", cond)
	}
}

// oracleInvCondInto is InvCondInto as it stood before it became
// SolveCondInto against the identity: the permuted identity written
// straight into dst, then the substitution — on the LU oracles.
func oracleInvCondInto(dst, a *Dense) (float64, error) {
	anorm := a.Norm1()
	n := a.rows
	f, err := oracleFactorLU(a.Clone(), make([]int, n))
	if err != nil {
		return math.Inf(1), err
	}
	cond := oracleCond1(&f, anorm)
	dst.Zero()
	for i, p := range f.piv {
		dst.data[i*n+p] = 1
	}
	oracleLUSolve(&f, dst)
	return cond, nil
}

// TestSolveCondInto pins the direct solve against the inverse it replaces
// on the KID path: the same condition estimate bit for bit, X = A⁻¹·B up to
// the rounding the two substitution orders differ by, a backward-stable
// residual, and InvCondInto itself unchanged in every bit.
func TestSolveCondInto(t *testing.T) {
	rng := NewRNG(21)
	const n, k = 48, 7
	well := RandN(rng, n, n, 1).AddDiag(8)
	// κ ≈ 1e8: orthogonal-ish mixing of a graded diagonal.
	u := FactorQRPivot(RandN(rng, n, n, 1)).Q()
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, math.Pow(10, -8*float64(i)/float64(n-1)))
	}
	stiff := Mul(Mul(u, d), FactorQRPivot(RandN(rng, n, n, 1)).Q().T())
	for name, a := range map[string]*Dense{"well": well, "stiff": stiff} {
		b := RandN(rng, n, k, 1)
		inv, wantInv, x := NewDense(n, n), NewDense(n, n), NewDense(n, k)
		condInv, err := InvCondInto(inv, a)
		if err != nil {
			t.Fatal(name, err)
		}
		condWant, _ := oracleInvCondInto(wantInv, a)
		sameBits(t, name+": InvCondInto vs its old body", wantInv, inv)
		cond, err := SolveCondInto(x, a, b)
		if err != nil {
			t.Fatal(name, err)
		}
		if math.Float64bits(cond) != math.Float64bits(condInv) || math.Float64bits(cond) != math.Float64bits(condWant) {
			t.Fatalf("%s: cond solve %g, inverse %g, old inverse %g: want equal bits", name, cond, condInv, condWant)
		}
		want := Mul(inv, b)
		const tol = 1e-12
		diff := MaxAbsDiff(x, want) / want.MaxAbs()
		res := MaxAbsDiff(Mul(a, x), b) / (a.Norm1() * x.MaxAbs())
		t.Logf("%s: cond %.3g, |X − A⁻¹B| %.3g relative, residual %.3g", name, cond, diff, res)
		if diff > tol {
			t.Fatalf("%s (cond %.3g): solve differs from A⁻¹·B by %g relative; limit %g", name, cond, diff, tol)
		}
		if res > 1e-14 {
			t.Fatalf("%s: relative residual %g of the direct solve", name, res)
		}
	}

	sing := RandN(rng, 5, 5, 1)
	for i := 0; i < 5; i++ {
		sing.Set(i, 2, 0)
	}
	cond, err := SolveCondInto(NewDense(5, 2), sing, RandN(rng, 5, 2, 1))
	if !errors.Is(err, ErrSingular) || !math.IsInf(cond, 1) {
		t.Fatalf("zero column: cond %g err %v; want +Inf and ErrSingular", cond, err)
	}
}

func TestScrubNonFinite(t *testing.T) {
	v := []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), -2}
	if AllFinite(v) {
		t.Fatal("AllFinite on poisoned slice")
	}
	if n := ScrubNonFinite(v); n != 3 {
		t.Fatalf("scrubbed %d; want 3", n)
	}
	if !AllFinite(v) || v[1] != 0 || v[2] != 0 || v[3] != 0 || v[0] != 1 || v[4] != -2 {
		t.Fatalf("scrub result %v", v)
	}
	m := NewDenseData(1, 2, []float64{math.NaN(), 7})
	if n := m.ScrubNonFinite(); n != 1 || !m.IsFinite() {
		t.Fatalf("matrix scrub: n=%d finite=%v", n, m.IsFinite())
	}
}

// A singular SPD system at zero damping must be rescued by the bounded
// Levenberg-Marquardt escalation: retries > 0 and a finite inverse.
func TestInvSPDDampedCheckedEscalatesSingular(t *testing.T) {
	sing := NewDense(4, 4)
	sing.Fill(1) // rank-1 Gram matrix: Cholesky fails at damp=0
	inv, usedDamp, retries, cond, err := InvSPDDampedChecked(nil, sing, 0)
	if err != nil {
		t.Fatalf("damped escalation failed: %v", err)
	}
	if retries == 0 {
		t.Fatal("singular input inverted with zero retries")
	}
	if usedDamp <= 0 {
		t.Fatalf("usedDamp = %g; want > 0", usedDamp)
	}
	if !inv.IsFinite() {
		t.Fatal("non-finite inverse")
	}
	if math.IsNaN(cond) {
		t.Fatal("NaN condition estimate")
	}
}

// Non-finite input cannot be rescued by damping: the checked form must
// return an error (bounded — it must terminate), and the never-panic
// wrapper must degrade to a finite diagonal pseudo-inverse.
func TestInvSPDDampedNonFiniteInput(t *testing.T) {
	bad := NewDense(3, 3)
	bad.Fill(math.NaN())
	if _, _, _, _, err := InvSPDDampedChecked(nil, bad, 0.1); err == nil {
		t.Fatal("NaN input: expected error from checked form")
	}
	inv := InvSPDDamped(bad, 0.1)
	if inv == nil || !inv.IsFinite() {
		t.Fatalf("never-panic wrapper returned unusable inverse: %v", inv)
	}
}

func TestQRPivotNumericalRankDuplicatedRows(t *testing.T) {
	rng := NewRNG(21)
	base := RandN(rng, 1, 5, 1)
	a := VStack(base, base, base, base) // four identical rows: rank 1
	f := FactorQRPivot(a)
	if r := f.NumericalRank(1e-10); r != 1 {
		t.Fatalf("NumericalRank(dup rows) = %d; want 1", r)
	}
	// tol <= 0 disables truncation: full factorization size.
	if r := f.NumericalRank(0); r != 4 {
		t.Fatalf("NumericalRank(tol=0) = %d; want 4", r)
	}
	// A full-rank matrix keeps its full rank under a tight tolerance.
	b := RandN(rng, 5, 5, 1)
	if r := FactorQRPivot(b).NumericalRank(1e-12); r != 5 {
		t.Fatalf("NumericalRank(full rank) = %d; want 5", r)
	}
	// All-zero and non-finite inputs report rank 0, never panic.
	if r := FactorQRPivot(NewDense(3, 3)).NumericalRank(1e-10); r != 0 {
		t.Fatalf("NumericalRank(zero) = %d; want 0", r)
	}
	nan := NewDense(3, 3)
	nan.Fill(math.NaN())
	if r := FactorQRPivot(nan).NumericalRank(1e-10); r != 0 {
		t.Fatalf("NumericalRank(NaN) = %d; want 0", r)
	}
}

func TestInterpolativeDecompTolTruncates(t *testing.T) {
	rng := NewRNG(33)
	row := RandN(rng, 1, 6, 1)
	a := VStack(row, row, row, row, row) // rank 1
	p, s := InterpolativeDecompTol(a, 4, 1e-10)
	if len(s) != 1 {
		t.Fatalf("rank-1 input truncated to %d skeleton rows; want 1", len(s))
	}
	if p.Cols() != 1 || p.Rows() != 5 {
		t.Fatalf("projection dims %dx%d; want 5x1", p.Rows(), p.Cols())
	}
	// Reconstruction from the single skeleton row is exact up to roundoff.
	if d := MaxAbsDiff(Mul(p, a.SelectRows(s)), a); d > 1e-9 {
		t.Fatalf("rank-1 reconstruction error %g", d)
	}
	// tol = 0 keeps the requested rank.
	_, s0 := InterpolativeDecompTol(a, 4, 0)
	if len(s0) != 4 {
		t.Fatalf("tol=0 truncated to %d; want full 4", len(s0))
	}
}

// Norm2 must saturate to +Inf (not NaN) when an entry overflows.
func TestNorm2OverflowSafe(t *testing.T) {
	// Scaled accumulation: the naive sum of squares overflows, the scaled
	// form does not.
	if got := Norm2([]float64{1e200, 1e200}); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Norm2 scaled accumulation = %v; want finite", got)
	}
	// An infinite entry saturates to +Inf rather than NaN.
	if got := Norm2([]float64{1, math.Inf(1)}); !math.IsInf(got, 1) {
		t.Fatalf("Norm2 with Inf entry = %v; want +Inf", got)
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm2(3,4) = %v; want 5", got)
	}
	if got := Norm2([]float64{1e-300, 1e-300}); got == 0 {
		t.Fatal("Norm2 underflowed to 0 on tiny inputs")
	}
}
