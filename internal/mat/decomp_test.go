package mat

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestCholeskyReconstruction(t *testing.T) {
	rng := NewRNG(11)
	for _, n := range []int{1, 2, 5, 20, 60} {
		a := RandSPD(rng, n, 1)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxAbsDiff(MulTB(l, l), a); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: L*Lᵀ differs from A by %g", n, d)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := Cholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("expected ErrNotSPD, got %v", err)
	}
}

func TestSolveCholesky(t *testing.T) {
	rng := NewRNG(12)
	a := RandSPD(rng, 30, 2)
	b := RandN(rng, 30, 4, 1)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := SolveCholesky(l, b)
	if d := MaxAbsDiff(Mul(a, x), b); d > 1e-8 {
		t.Fatalf("A*x differs from b by %g", d)
	}
}

func TestInvSPD(t *testing.T) {
	rng := NewRNG(13)
	a := RandSPD(rng, 25, 1.5)
	inv, err := InvSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(Mul(a, inv), Identity(25)); d > 1e-8 {
		t.Fatalf("A*A⁻¹ differs from I by %g", d)
	}
}

func TestInvSPDDampedStabilizes(t *testing.T) {
	// Rank-deficient PSD matrix: damping must succeed anyway.
	rng := NewRNG(14)
	b := RandN(rng, 10, 3, 1)
	a := Gram(b) // rank 3, size 10 — singular
	inv := InvSPDDamped(a, 1e-4)
	// (A + damp I) * inv ≈ I for the effective damping used; at minimum the
	// result must be finite and symmetric-ish.
	if inv.MaxAbs() == 0 || inv.MaxAbs() > 1e12 {
		t.Fatalf("damped inverse has unreasonable magnitude %g", inv.MaxAbs())
	}
	if d := MaxAbsDiff(inv, inv.T()); d > 1e-6 {
		t.Fatalf("damped inverse asymmetric by %g", d)
	}
}

func TestLUSolve(t *testing.T) {
	rng := NewRNG(15)
	for _, n := range []int{1, 2, 7, 33} {
		a := RandN(rng, n, n, 1).AddDiag(3) // well-conditioned
		b := RandN(rng, n, 3, 1)
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxAbsDiff(Mul(a, x), b); d > 1e-9*float64(n) {
			t.Fatalf("n=%d: residual %g", n, d)
		}
	}
}

func TestInvGeneral(t *testing.T) {
	rng := NewRNG(16)
	a := RandN(rng, 20, 20, 1).AddDiag(4)
	inv, err := Inv(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(Mul(inv, a), Identity(20)); d > 1e-9 {
		t.Fatalf("A⁻¹*A differs from I by %g", d)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

// Property: the Sherman-Morrison-Woodbury identity that underpins SNGD
// (Eq. 7): (α I + Uᵀ U)⁻¹ = (1/α)(I − Uᵀ (U Uᵀ + α I)⁻¹ U).
func TestSMWIdentityProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := NewRNG(uint64(seed)*131 + 3)
		m, d := 2+rng.Intn(6), 3+rng.Intn(12)
		alpha := 0.1 + rng.Float64()
		u := RandN(rng, m, d, 1)
		// Direct: (Uᵀ U + α I)⁻¹, d×d.
		direct, err := InvSPD(GramT(u).AddDiag(alpha))
		if err != nil {
			return false
		}
		// SMW: (1/α)(I − Uᵀ (U Uᵀ + α I)⁻¹ U), with kernel m×m.
		kinv, err := InvSPD(Gram(u).AddDiag(alpha))
		if err != nil {
			return false
		}
		smw := Identity(d)
		smw.AddScaled(MulTA(u, Mul(kinv, u)), -1)
		smw.Scale(1 / alpha)
		return MaxAbsDiff(direct, smw) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky solve matches LU solve on SPD systems.
func TestCholeskyMatchesLUProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := NewRNG(uint64(seed)*17 + 29)
		n := 2 + rng.Intn(15)
		a := RandSPD(rng, n, 1)
		b := RandN(rng, n, 2, 1)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x1 := SolveCholesky(l, b)
		x2, err := Solve(a, b)
		if err != nil {
			return false
		}
		return MaxAbsDiff(x1, x2) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
