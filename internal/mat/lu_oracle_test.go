package mat

// The blocked LU factorization, its panel solve and the row-walking
// condition estimate held to the unblocked elimination, row-wise
// substitution and column-walking estimate they replaced, by
// math.Float64bits (sameValue: any NaN equals any NaN), under every kernel
// family.

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// oracleFactorLU is factorLUInPlace as it stood before blocking: the
// right-looking elimination one column at a time, one axpy per row.
func oracleFactorLU(lu *Dense, piv []int) (LU, error) {
	n := lu.rows
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
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

// oracleLUSolve is solveInPlace as it stood: the forward and back
// substitution one whole row of x per axpy.
func oracleLUSolve(f *LU, x *Dense) {
	n := f.lu.rows
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		xi := x.Row(i)
		for k := 0; k < i; k++ {
			if ri[k] != 0 {
				axpy(xi, x.Row(k), -ri[k])
			}
		}
	}
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

// oracleSolveVecT is solveVecT as it stood, its Uᵀ step a dot down each
// column of U.
func oracleSolveVecT(f *LU, x []float64) {
	n := f.lu.rows
	tmp := append([]float64(nil), x...)
	for i := 0; i < n; i++ {
		var s float64
		for k := 0; k < i; k++ {
			s += f.lu.At(k, i) * tmp[k]
		}
		tmp[i] = (tmp[i] - s) / f.lu.At(i, i)
	}
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
}

// oracleCond1 is Cond1 on oracleSolveVecT.
func oracleCond1(f *LU, anorm float64) float64 {
	if f.lu.rows == 0 {
		return 0
	}
	return anorm * hagerInvNorm1(f.lu.rows, f.solveVec, func(x []float64) { oracleSolveVecT(f, x) })
}

// luOracleKinds are the inputs the LU oracle runs on: "random"; "kid", the
// KID residual's shape, every third row and column exact zeros with α on
// the diagonal; "zeros", half the entries ±0, so multipliers are ±0 and
// skipped; "nan" and "inf", one NaN or a +Inf and a −Inf entry; "singular",
// a zero column in the middle.
var luOracleKinds = []string{"random", "kid", "zeros", "nan", "inf", "singular"}

func luOracleInput(rng *RNG, kind string, n int) *Dense {
	a := RandN(rng, n, n, 1)
	switch kind {
	case "kid":
		for i := 0; i < n; i += 3 {
			clear(a.Row(i))
			for j := 0; j < n; j++ {
				a.Set(j, i, 0)
			}
		}
		a.AddDiag(1e-3)
	case "zeros":
		for i := range a.data {
			if rng.Intn(2) == 0 {
				a.data[i] = oracleFinite[rng.Intn(2)]
			}
		}
	case "nan":
		a.Set(rng.Intn(n), rng.Intn(n), math.NaN())
	case "inf":
		a.Set(rng.Intn(n), rng.Intn(n), math.Inf(1))
		a.Set(rng.Intn(n), rng.Intn(n), math.Inf(-1))
	case "singular":
		for i := 0; i < n; i++ {
			a.Set(i, n/2, 0)
		}
	}
	return a
}

// checkLUOracle factors a copy of a and solves against each right-hand
// side, under every kernel family, holding the factor, pivots, sign,
// error and solutions to the oracles. It returns the oracle's error.
func checkLUOracle(t *testing.T, name string, a *Dense, rhs []*Dense) error {
	t.Helper()
	n := a.rows
	want, wantErr := oracleFactorLU(a.Clone(), make([]int, n))
	var wantX []*Dense
	if wantErr == nil {
		for _, b := range rhs {
			x := b.SelectRows(want.piv)
			oracleLUSolve(&want, x)
			wantX = append(wantX, x)
		}
	}
	for _, impl := range kernelImpls {
		name := name + " " + impl.name
		var got LU
		var err error
		impl.with(func() { got, err = factorLUInPlace(a.Clone(), make([]int, n)) })
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, oracle %v", name, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.sign != want.sign || !sameInts(got.piv, want.piv) {
			t.Fatalf("%s: sign %d piv %v, oracle %d %v", name, got.sign, got.piv, want.sign, want.piv)
		}
		sameOracle(t, name+" factor", want.lu, got.lu)
		for i, b := range rhs {
			x := b.SelectRows(got.piv)
			impl.with(func() { got.solveInPlace(x) })
			sameOracle(t, fmt.Sprintf("%s solve width %d", name, b.cols), wantX[i], x)
		}
	}
	return wantErr
}

// TestLUOracle runs every kind at n = 1…40 and across the panel edges at
// 63–65, 127–129 and 255–257, against right-hand sides from one column to
// three panels wide, most of them with width mod 32 ≠ 0.
func TestLUOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		var sizes []int
		for n := 1; n <= 40; n++ {
			sizes = append(sizes, n)
		}
		sizes = append(sizes, 63, 64, 65, 127, 128, 129, 255, 256, 257)
		for _, n := range sizes {
			if testing.Short() && n > 40 {
				continue
			}
			for ki, kind := range luOracleKinds {
				rng := NewRNG(uint64(10*n + ki))
				a := luOracleInput(rng, kind, n)
				var rhs []*Dense
				for _, w := range []int{1, 9, 16, 17, 25, 31, 33, 63, 65} {
					rhs = append(rhs, RandN(rng, n, w, 1))
				}
				name := fmt.Sprintf("%s n=%d", kind, n)
				err := checkLUOracle(t, name, a, rhs)
				// A ±0-heavy matrix may be singular or not.
				if kind != "zeros" && (kind == "singular") != errors.Is(err, ErrSingular) {
					t.Fatalf("%s: oracle error %v", name, err)
				}
			}
		}
	})
}

// TestSubstPanelOracle runs the panel solve on a made-up factor of order 257
// (not a multiple of substW) against right-hand sides 25 and 57 wide, under
// every kernel family: one coefficient in three is ±0, U's last column is
// ±0 above the diagonal, and l[n-1][5] and u[0][100] are NaN, so rows 0 and
// n-1 of the solution are NaN and the rest finite.
func TestSubstPanelOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		const n = 257
		rng := NewRNG(257)
		lu := RandN(rng, n, n, 0.05)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				switch {
				case i == j:
					lu.Set(i, i, 1+math.Abs(lu.At(i, i)))
				case j == n-1 || rng.Intn(3) == 0:
					lu.Set(i, j, oracleFinite[rng.Intn(2)])
				}
			}
		}
		lu.Set(n-1, 5, math.NaN())
		lu.Set(0, 100, math.NaN())
		f := LU{lu: lu, piv: make([]int, n), sign: 1}
		for _, w := range []int{25, 57} {
			b := RandN(rng, n, w, 1)
			want := b.Clone()
			oracleLUSolve(&f, want)
			for i := 0; i < n; i++ {
				if nan := math.IsNaN(want.At(i, 0)); nan != (i == 0 || i == n-1) {
					t.Fatalf("width %d: oracle row %d is %v", w, i, want.At(i, 0))
				}
			}
			for _, impl := range kernelImpls {
				got := b.Clone()
				impl.with(func() { f.solveInPlace(got) })
				sameOracle(t, fmt.Sprintf("width %d %s", w, impl.name), want, got)
			}
		}
	})
}

// TestLUCond1Bits pins the transpose solve, whose Uᵀ step now walks U by
// rows, and the condition estimate built on it to the column-walking form.
// Hager's iteration reads the transpose solve only through an argmax, so
// the solve is compared directly too.
func TestLUCond1Bits(t *testing.T) {
	for _, n := range []int{1, 17, 64, 257} {
		for ki, kind := range luOracleKinds[:3] {
			rng := NewRNG(uint64(10*n + ki))
			a := luOracleInput(rng, kind, n)
			anorm := a.Norm1()
			f, err := FactorLU(a)
			if err != nil {
				if kind == "zeros" && n == 1 {
					continue // a ±0 1×1 matrix
				}
				t.Fatalf("%s n=%d: %v", kind, n, err)
			}
			if got, want := f.Cond1(anorm), oracleCond1(f, anorm); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d: Cond1 = %v, oracle %v", kind, n, got, want)
			}
			got := RandN(rng, 1, n, 1).data
			want := append([]float64(nil), got...)
			f.solveVecT(got)
			oracleSolveVecT(f, want)
			sameBitsVec(t, fmt.Sprintf("%s n=%d: solveVecT", kind, n), want, got)
		}
	}
}

// BenchmarkLUFactorSolve times factor plus solve at the KID residual's
// batch and rank sizes: "oracle" is the unblocked elimination and row-wise
// substitution, "blocked" factorLUInPlace and solveInPlace.
func BenchmarkLUFactorSolve(b *testing.B) {
	for _, s := range [][2]int{{64, 6}, {128, 12}, {256, 25}} {
		n, w := s[0], s[1]
		rng := NewRNG(1)
		a := RandN(rng, n, n, 1).AddDiag(float64(n))
		rhs := RandN(rng, n, w, 1)
		lu, x, piv := NewDense(n, n), NewDense(n, w), make([]int, n)
		for _, impl := range []struct {
			name  string
			fac   func(*Dense, []int) (LU, error)
			solve func(*LU, *Dense)
		}{{"oracle", oracleFactorLU, oracleLUSolve}, {"blocked", factorLUInPlace, (*LU).solveInPlace}} {
			b.Run(fmt.Sprintf("%s_%dx%d", impl.name, n, w), func(b *testing.B) {
				b.ReportAllocs()
				var f LU
				for i := 0; i < b.N; i++ {
					lu.CopyFrom(a)
					f, _ = impl.fac(lu, piv)
					x.CopyFrom(rhs)
					impl.solve(&f, x)
				}
			})
		}
	}
}
