package mat

import (
	"math"
	"testing"
)

// FuzzInterpolativeDecomp feeds arbitrary seeds/shapes through the ID and
// asserts the structural contract: valid unique indices and a finite
// reconstruction whose error never exceeds the trivial rank-0 bound, and
// bit-equality with the oracle factorization.
func FuzzInterpolativeDecomp(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(8), uint8(3))
	f.Add(uint64(42), uint8(20), uint8(5), uint8(5))
	f.Add(uint64(7), uint8(3), uint8(17), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, mDim, nDim, rank uint8) {
		m := int(mDim%24) + 1
		n := int(nDim%24) + 1
		r := int(rank%uint8(m)) + 1
		rng := NewRNG(seed)
		q := RandN(rng, m, n, 1)
		p, s := InterpolativeDecomp(q, r)
		if len(s) > r || p.Cols() != len(s) {
			t.Fatalf("contract: |S|=%d cols=%d r=%d", len(s), p.Cols(), r)
		}
		seen := map[int]bool{}
		for _, i := range s {
			if i < 0 || i >= m || seen[i] {
				t.Fatalf("bad index set %v (m=%d)", s, m)
			}
			seen[i] = true
		}
		rec := Mul(p, q.SelectRows(s))
		for _, v := range rec.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite reconstruction")
			}
		}
		checkRowIDOracle(t, q, []int{r})
	})
}

// FuzzCholeskySolve checks that whenever Cholesky succeeds, the solve it
// produces actually satisfies the system.
func FuzzCholeskySolve(f *testing.F) {
	f.Add(uint64(3), uint8(4), 1.0)
	f.Add(uint64(11), uint8(12), 0.1)
	f.Fuzz(func(t *testing.T, seed uint64, nDim uint8, dampRaw float64) {
		n := int(nDim%16) + 1
		damp := math.Abs(dampRaw)
		if math.IsNaN(damp) || math.IsInf(damp, 0) || damp > 1e6 {
			damp = 1
		}
		rng := NewRNG(seed)
		a := RandSPD(rng, n, damp+1e-6)
		b := RandN(rng, n, 2, 1)
		l, err := Cholesky(a)
		if err != nil {
			return // numerically indefinite inputs are allowed to fail
		}
		x := SolveCholesky(l, b)
		if d := MaxAbsDiff(Mul(a, x), b); d > 1e-6*float64(n)*(1+damp) {
			t.Fatalf("n=%d damp=%g: residual %g", n, damp, d)
		}
	})
}

// FuzzKernelIdentity stresses the Khatri-Rao kernel identity across
// arbitrary shapes — the structural heart of the SNGD formulation.
func FuzzKernelIdentity(f *testing.F) {
	f.Add(uint64(5), uint8(6), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, mDim, da, dg uint8) {
		m := int(mDim%12) + 1
		a := RandN(NewRNG(seed), m, int(da%8)+1, 1)
		g := RandN(NewRNG(seed+1), m, int(dg%8)+1, 1)
		if d := MaxAbsDiff(KernelMatrix(a, g), Gram(KhatriRao(a, g))); d > 1e-9 {
			t.Fatalf("kernel identity violated by %g", d)
		}
	})
}

// FuzzFactorLU asserts the panic-free contract of the LU path: either the
// factorization reports an error, or the solve it yields is finite and the
// condition estimate is non-negative — for arbitrary (including degenerate
// and non-finite) inputs, it must never panic. Factor, pivots, error and a
// two-panel solve also match the unblocked oracle bit for bit.
func FuzzFactorLU(f *testing.F) {
	f.Add(uint64(1), uint8(4), 1.0)
	f.Add(uint64(9), uint8(1), 0.0)
	f.Add(uint64(17), uint8(12), math.NaN())
	f.Add(uint64(5), uint8(36), 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, nDim uint8, poison float64) {
		n := int(nDim%40) + 1
		rng := NewRNG(seed)
		a := RandN(rng, n, n, 1)
		// Sometimes poison one entry (NaN, Inf, huge) to probe non-finite
		// handling; sometimes collapse to rank deficiency.
		if !math.IsNaN(poison) && math.Abs(poison) > 0 {
			a.Set(rng.Intn(n), rng.Intn(n), poison)
		}
		if seed%3 == 0 && n > 1 {
			copy(a.Row(1), a.Row(0)) // duplicated row: exactly singular
		}
		checkLUOracle(t, "fuzz", a, []*Dense{RandN(rng, n, 1+int(seed%33), 1)})
		anorm := a.Norm1()
		lu, err := FactorLU(a)
		if err != nil {
			return // degenerate inputs may fail, but only via error
		}
		cond := lu.Cond1(anorm)
		if cond < 0 {
			t.Fatalf("negative condition estimate %g", cond)
		}
		b := RandN(rng, n, 1, 1)
		x := lu.Solve(b)
		if x.Rows() != n || x.Cols() != 1 {
			t.Fatalf("solve shape %dx%d", x.Rows(), x.Cols())
		}
	})
}

// FuzzQRPivot asserts that pivoted QR and its numerical-rank detection
// never panic and obey the rank contract 0 ≤ rank ≤ min(m,n) for arbitrary
// inputs, including exactly-singular and non-finite ones. The row sweep
// also matches its single-row oracle bit for bit.
func FuzzQRPivot(f *testing.F) {
	f.Add(uint64(2), uint8(6), uint8(4), 1e-10)
	f.Add(uint64(8), uint8(1), uint8(9), 0.0)
	f.Add(uint64(5), uint8(10), uint8(10), math.Inf(1))
	f.Add(uint64(6), uint8(37), uint8(30), 1e-12)
	f.Fuzz(func(t *testing.T, seed uint64, mDim, nDim uint8, tol float64) {
		m := int(mDim%40) + 1
		n := int(nDim%40) + 1
		rng := NewRNG(seed)
		a := RandN(rng, m, n, 1)
		switch seed % 4 {
		case 1: // duplicated rows
			for i := 1; i < m; i++ {
				copy(a.Row(i), a.Row(0))
			}
		case 2: // zero matrix
			a.Zero()
		case 3: // one poisoned entry
			a.Set(rng.Intn(m), rng.Intn(n), math.NaN())
		}
		qr := FactorQRPivot(a)
		k := m
		if n < k {
			k = n
		}
		rank := qr.NumericalRank(tol)
		if rank < 0 || rank > k {
			t.Fatalf("rank %d out of [0,%d]", rank, k)
		}
		// The column pivoting must stay a valid permutation.
		perm := qr.Perm()
		seen := map[int]bool{}
		for _, p := range perm {
			if p < 0 || p >= len(perm) || seen[p] {
				t.Fatalf("invalid pivot permutation %v", perm)
			}
			seen[p] = true
		}
		if o := oracleFactorQRPivot(a).NumericalRank(tol); rank != o {
			t.Fatalf("NumericalRank(%g) = %d, oracle %d", tol, rank, o)
		}
		want := oracleFactorRows(a.Clone(), k)
		got := factorRowsOf(a, k)
		sameOracle(t, "row sweep w", want.qt, got.qt)
		sameOracle(t, "row sweep τ", NewDenseData(1, k, want.tau), NewDenseData(1, k, got.tau))
		if !sameInts(got.perm, want.perm) {
			t.Fatalf("row sweep perm %v, oracle %v", got.perm, want.perm)
		}
		got.put()
		checkRowIDOracle(t, a.T(), []int{1 + int(seed%uint64(k))})
	})
}

// FuzzInvSPD asserts the never-panic contract of the damped SPD inverse:
// the checked form terminates with a finite inverse or an error, and the
// wrapper always returns a finite matrix, for arbitrary symmetric inputs.
func FuzzInvSPD(f *testing.F) {
	f.Add(uint64(4), uint8(5), 0.1, 1.0)
	f.Add(uint64(12), uint8(3), 0.0, math.Inf(1))
	f.Add(uint64(23), uint8(8), 1e-8, math.NaN())
	f.Fuzz(func(t *testing.T, seed uint64, nDim uint8, alphaRaw, poison float64) {
		n := int(nDim%10) + 1
		alpha := math.Abs(alphaRaw)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha > 1e6 {
			alpha = 0
		}
		rng := NewRNG(seed)
		var a *Dense
		switch seed % 3 {
		case 0:
			a = RandSPD(rng, n, 1e-6)
		case 1: // rank-1 Gram: singular
			v := RandN(rng, n, 1, 1)
			a = Mul(v, v.T())
		default: // symmetric with a poisoned diagonal entry
			a = RandSPD(rng, n, 1)
			a.Set(n-1, n-1, poison)
		}
		inv, _, retries, _, err := InvSPDDampedChecked(nil, a, alpha)
		if err == nil {
			if !inv.IsFinite() {
				t.Fatal("checked success returned non-finite inverse")
			}
			if retries < 0 {
				t.Fatalf("negative retry count %d", retries)
			}
		}
		if safe := InvSPDDamped(a, alpha); safe == nil || !safe.IsFinite() {
			t.Fatal("InvSPDDamped broke the always-finite contract")
		}
	})
}

// FuzzRandomizedID drives the sketched interpolative decomposition through
// arbitrary shapes, ranks, oversampling (including the formerly-accepted
// negative values), and both sketch kinds. The panic-free contract: valid
// unique indices, P of the right shape, a finite P for finite input, and a
// condition estimate that is >= 1, NaN, or +Inf — never negative.
func FuzzRandomizedID(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(8), uint8(3), int8(4), false)
	f.Add(uint64(9), uint8(20), uint8(5), uint8(5), int8(-6), true)
	f.Add(uint64(3), uint8(3), uint8(17), uint8(1), int8(0), true)
	f.Fuzz(func(t *testing.T, seed uint64, mDim, nDim, rank uint8, over int8, srht bool) {
		m := int(mDim%24) + 1
		n := int(nDim%24) + 1
		r := int(rank % 25) // may exceed min(m,n); must clamp
		kind := SketchGauss
		if srht {
			kind = SketchSRHT
		}
		rng := NewRNG(seed)
		q := RandN(rng, m, n, 1)
		if seed%5 == 0 && m > 1 {
			copy(q.Row(1), q.Row(0)) // duplicated row: rank-deficient
		}
		rngOracle := *rng
		p, s, cond := RandomizedIDInto(nil, nil, rng, q, r, int(over), kind)
		wantP, wantS, wantCond := oracleRandomizedIDInto(nil, nil, &rngOracle, q, r, int(over), kind)
		if !sameInts(s, wantS) || !sameValue(cond, wantCond) {
			t.Fatalf("S %v cond %g, oracle %v %g", s, cond, wantS, wantCond)
		}
		sameOracle(t, "sketched P", wantP, p)
		want := min(r, min(m, n))
		if want < 0 {
			want = 0
		}
		if len(s) != want || p.Rows() != m || p.Cols() != want {
			t.Fatalf("contract: |S|=%d P=%dx%d want rank %d", len(s), p.Rows(), p.Cols(), want)
		}
		seen := map[int]bool{}
		for _, i := range s {
			if i < 0 || i >= m || seen[i] {
				t.Fatalf("bad index set %v (m=%d)", s, m)
			}
			seen[i] = true
		}
		if !p.IsFinite() {
			t.Fatal("non-finite P for finite input")
		}
		if cond < 1 && !math.IsNaN(cond) {
			t.Fatalf("condition estimate %g below 1", cond)
		}
	})
}
