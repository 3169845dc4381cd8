package mat

// The SPD inverse's substitution kernel held to the row-by-row solve, by
// math.Float64bits (sameValue: any NaN equals any NaN), under every kernel
// family.

import (
	"fmt"
	"math"
	"testing"
)

// SolveCholesky solves a*x = b given the Cholesky factor L of a, for each
// column of b, one whole row of x per axpy. SolveCholesky(l, Identity(n))
// is the oracle invCholInto must reproduce bit for bit.
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

// oracleFactor returns a Cholesky factor of one of four kinds: "spd", a
// random SPD matrix's; "zeros", that factor with one coefficient in three
// below the diagonal replaced by ±0; "poisoned", FuzzInvSPD's poisoned seed
// (a +Inf last diagonal entry); "inf-mid", a +Inf diagonal entry in the
// middle, so 1/l_jj = 0 zeroes row j and the ±0 below it are skipped.
func oracleFactor(t *testing.T, rng *RNG, kind string, n int) (*Dense, *Dense) {
	t.Helper()
	a := RandSPD(rng, n, 1)
	switch kind {
	case "poisoned":
		a.Set(n-1, n-1, math.Inf(1))
	case "inf-mid":
		a.Set(n/2, n/2, math.Inf(1))
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatalf("%s n=%d: %v", kind, n, err)
	}
	if kind == "zeros" {
		for i := 1; i < n; i++ {
			for k := 0; k < i; k++ {
				if rng.Intn(3) == 0 {
					l.Set(i, k, oracleFinite[rng.Intn(2)])
				}
			}
		}
	}
	return a, l
}

// TestInvSPDOracle holds invCholInto to SolveCholesky(l, Identity(n)) for
// n = 1…40 and across the last panel's edge at 255/256/257, and the public
// InvSPD and InvSPDDampedChecked to the same oracle of their own factor.
func TestInvSPDOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		sizes := []int{255, 256, 257}
		for n := 1; n <= 40; n++ {
			sizes = append(sizes, n)
		}
		for _, n := range sizes {
			if testing.Short() && n > 40 {
				continue
			}
			for ki, kind := range []string{"spd", "zeros", "poisoned", "inf-mid"} {
				a, l := oracleFactor(t, NewRNG(uint64(10*n+ki)), kind, n)
				want := SolveCholesky(l, Identity(n))
				lt := l.T()
				got := NewDense(n, n)
				for _, impl := range kernelImpls {
					name := fmt.Sprintf("%s n=%d %s", kind, n, impl.name)
					got.Fill(math.NaN())
					impl.with(func() { invCholInto(got, l, lt) })
					sameOracle(t, name, want, got)
					if kind == "zeros" {
						continue // l is no longer a's factor
					}
					var inv *Dense
					impl.with(func() { inv, _ = InvSPD(a) })
					sameOracle(t, name+" InvSPD", want, inv)
					got.Fill(math.NaN())
					impl.with(func() { _, _, _, _, _ = InvSPDDampedChecked(got, a, 0) })
					lz, _ := Cholesky(a.Clone().AddDiag(0))
					sameOracle(t, name+" InvSPDDampedChecked", SolveCholesky(lz, Identity(n)), got)
				}
			}
		}
	})
}

// oracleInvSPDDamped is the damped inverse formed step by step along
// InvSPDDampedChecked's damping schedule: Cholesky of a.Clone().AddDiag(damp),
// then the column-walk 1-norm of that sum, the column-reading estimate and
// SolveCholesky(l, Identity(n)).
func oracleInvSPDDamped(a *Dense, alpha float64) (inv *Dense, damp float64, retries int, cond float64) {
	damp = alpha
	for k := 0; k < maxDampedAttempts; k++ {
		c := a.Clone().AddDiag(damp)
		if l, err := Cholesky(c); err == nil {
			return SolveCholesky(l, Identity(a.rows)), damp, k, oracleCondEstCholesky(l, oracleNorm1(c))
		}
		if damp == 0 {
			damp = 1e-8
		} else {
			damp *= 10
		}
	}
	return nil, damp, maxDampedAttempts, math.Inf(1)
}

// TestInvSPDDampedOracle holds InvSPDDampedChecked, which adds the damping
// to each pivot in place, to oracleInvSPDDamped for α > 0 and for a matrix
// of ones, which fails at its second pivot until the damping escalates
// (from 0, and from a 1e-20 that 1 + 1e-20 rounds away).
func TestInvSPDDampedOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		for _, n := range []int{1, 4, 17, 33, 257} {
			ones := NewDense(n, n)
			ones.Fill(1)
			spd := RandSPD(NewRNG(uint64(n)), n, 1)
			for _, c := range []struct {
				name  string
				a     *Dense
				alpha float64
			}{{"spd α=1e-3", spd, 1e-3}, {"spd α=0.1", spd, 0.1}, {"ones α=0", ones, 0}, {"ones α=1e-20", ones, 1e-20}} {
				want, wantDamp, wantRetries, wantCond := oracleInvSPDDamped(c.a, c.alpha)
				if n > 1 && c.a == ones && wantRetries == 0 {
					t.Fatalf("%s n=%d: the oracle needed no retry", c.name, n)
				}
				for _, impl := range kernelImpls {
					name := fmt.Sprintf("%s n=%d %s", c.name, n, impl.name)
					got := NewDense(n, n)
					got.Fill(math.NaN())
					var damp, cond float64
					var retries int
					var err error
					impl.with(func() { _, damp, retries, cond, err = InvSPDDampedChecked(got, c.a, c.alpha) })
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if math.Float64bits(damp) != math.Float64bits(wantDamp) || retries != wantRetries || math.Float64bits(cond) != math.Float64bits(wantCond) {
						t.Fatalf("%s: damp %v, %d retries, cond %v; oracle %v, %d, %v", name, damp, retries, cond, wantDamp, wantRetries, wantCond)
					}
					sameOracle(t, name, want, got)
				}
			}
		}
	})
}

// oracleSubst is substTileAVX2's contract written out per element: from
// dst[j], for k ascending and coef[k] not ±0, x + (−coef[k])·src[k][j] in
// one fused rounding (axpy's step), then x·scale.
func oracleSubst(coef, src, dst []float64, scale float64) []float64 {
	out := make([]float64, substW)
	for j := range out {
		x := dst[j]
		for k, c := range coef {
			if c != 0 {
				x = math.FMA(-c, src[k*substW+j], x)
			}
		}
		out[j] = x * scale
	}
	return out
}

// checkSubstOracle runs substRow under every kernel family against
// oracleSubst.
func checkSubstOracle(t *testing.T, coef, src, dst []float64, scale float64) {
	t.Helper()
	want := oracleSubst(coef, src, dst, scale)
	for _, impl := range kernelImpls {
		got := append([]float64(nil), dst...)
		impl.with(func() { substRow(coef, src, got, scale) })
		for j := range want {
			if !sameValue(want[j], got[j]) {
				t.Fatalf("subst %s nk=%d scale=%v: column %d is %v, want %v", impl.name, len(coef), scale, j, got[j], want[j])
			}
		}
	}
}

func TestSubstTileOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		for nk := 0; nk <= 257; nk++ {
			if nk > 40 && nk < 255 {
				continue
			}
			for ci, kind := range oracleKinds {
				rng := NewRNG(uint64(10*nk + ci))
				coef := oracleOperand(rng, kind, 1, nk).data
				src := oracleOperand(rng, kind, nk, substW).data
				dst := oracleOperand(rng, kind, 1, substW).data
				for _, scale := range []float64{1, 0.75, 0, math.Inf(1), math.NaN()} {
					checkSubstOracle(t, coef, src, dst, scale)
				}
			}
		}
	})
}

// FuzzSubstTile drives the substitution row, assembly and reference,
// against the oracle for arbitrary depths, operand kinds (±0, ±Inf, NaN,
// denormal and 1e±300 coefficients among them) and scales.
func FuzzSubstTile(f *testing.F) {
	f.Add(uint64(1), uint8(1), 1.0, uint8(0))
	f.Add(uint64(2), uint8(40), math.Inf(1), uint8(3))
	f.Add(uint64(3), uint8(255), 5e-324, uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nk uint8, scale float64, mode uint8) {
		kind := oracleKinds[mode&3]
		rng := NewRNG(seed)
		coef := oracleOperand(rng, kind, 1, int(nk)).data
		src := oracleOperand(rng, kind, int(nk), substW).data
		checkSubstOracle(t, coef, src, oracleOperand(rng, kind, 1, substW).data, scale)
	})
}

// oracleCondEstCholesky is condEstCholesky with the back substitution
// reading l down its columns instead of lᵀ along its rows.
func oracleCondEstCholesky(l *Dense, anorm float64) float64 {
	n := l.rows
	if n == 0 {
		return 0
	}
	solve := func(x []float64) {
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
	return anorm * hagerInvNorm1(n, solve, solve)
}

// oracleNorm1 is the 1-norm as a column walk.
func oracleNorm1(m *Dense) float64 {
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

// TestCondEstCholeskyBits pins the condition estimate, and the shifted 1-norm
// the damped inverse feeds it, to their column-walking forms.
func TestCondEstCholeskyBits(t *testing.T) {
	for _, n := range []int{1, 17, 257} {
		a, l := oracleFactor(t, NewRNG(uint64(n)), "spd", n)
		for _, d := range []float64{0, 1e-3, math.Copysign(0, -1)} {
			if got, want := a.norm1Shifted(d), oracleNorm1(a.Clone().AddDiag(d)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: norm1Shifted(%g) = %v, want %v", n, d, got, want)
			}
		}
		anorm := a.Norm1()
		if got, want := condEstCholesky(l, l.T(), anorm), oracleCondEstCholesky(l, anorm); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: condEstCholesky = %v, want %v", n, got, want)
		}
	}
}

// A warmed damped inverse into a destination allocates nothing.
func TestInvSPDDampedCheckedAllocs(t *testing.T) {
	const n = 64
	a := RandSPD(NewRNG(5), n, 1)
	dst := NewDense(n, n)
	fn := func() { _, _, _, _, _ = InvSPDDampedChecked(dst, a, 1e-3) }
	fn()
	if allocs := testing.AllocsPerRun(10, fn); allocs > 0 && !raceEnabled {
		t.Fatalf("InvSPDDampedChecked with a destination: %v allocs per call, want 0", allocs)
	}
}

// BenchmarkInvFromCholesky_257 times the inverse from the factor at the
// KFAC benchmark's factor size: "oracle" is SolveCholesky(l, Identity(n)),
// "panel" invCholInto into a kept destination.
func BenchmarkInvFromCholesky_257(b *testing.B) {
	const n = 257
	l, _ := Cholesky(RandSPD(NewRNG(1), n, 1))
	lt, dst := l.T(), NewDense(n, n)
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SolveCholesky(l, Identity(n))
		}
	})
	b.Run("panel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			invCholInto(dst, l, lt)
		}
	})
}
