package mat

import (
	"testing"
	"testing/quick"
)

func TestQRPivotReconstruction(t *testing.T) {
	rng := NewRNG(31)
	for _, dims := range [][2]int{{5, 5}, {10, 6}, {6, 10}, {30, 30}} {
		a := RandN(rng, dims[0], dims[1], 1)
		f := FactorQRPivot(a)
		q, r, perm := f.Q(), f.R(), f.Perm()
		// Rebuild A: columns of Q*R are the permuted columns of A.
		qr := Mul(q, r)
		back := NewDense(a.rows, a.cols)
		for pos, orig := range perm {
			for i := 0; i < a.rows; i++ {
				back.Set(i, orig, qr.At(i, pos))
			}
		}
		if d := MaxAbsDiff(back, a); d > 1e-9 {
			t.Fatalf("dims %v: QR reconstruction error %g", dims, d)
		}
		// Q orthonormal.
		if d := MaxAbsDiff(MulTA(q, q), Identity(q.Cols())); d > 1e-9 {
			t.Fatalf("dims %v: QᵀQ differs from I by %g", dims, d)
		}
	}
}

func TestQRPivotDiagonalDecreasing(t *testing.T) {
	rng := NewRNG(32)
	a := RandN(rng, 20, 20, 1)
	f := FactorQRPivot(a)
	r := f.R()
	prev := r.At(0, 0)
	for i := 1; i < 20; i++ {
		cur := r.At(i, i)
		if abs(cur) > abs(prev)+1e-9 {
			t.Fatalf("pivoted QR diagonal not decreasing: |r[%d,%d]|=%g > |r[%d,%d]|=%g",
				i, i, abs(cur), i-1, i-1, abs(prev))
		}
		prev = cur
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestInterpolativeDecompExactLowRank(t *testing.T) {
	rng := NewRNG(33)
	// Exactly rank-4 matrix: a rank-4 ID must reconstruct it exactly.
	q := RandLowRank(rng, 24, 16, 4, 0)
	p, s := InterpolativeDecomp(q, 4)
	if len(s) != 4 {
		t.Fatalf("len(S) = %d; want 4", len(s))
	}
	rec := Mul(p, q.SelectRows(s))
	if d := MaxAbsDiff(rec, q); d > 1e-8 {
		t.Fatalf("rank-4 ID of rank-4 matrix: error %g", d)
	}
}

func TestInterpolativeDecompIdentityRows(t *testing.T) {
	rng := NewRNG(34)
	q := RandN(rng, 12, 12, 1)
	r := 5
	p, s := InterpolativeDecomp(q, r)
	// The selected rows must be reproduced exactly: P[s[k], :] = e_k.
	for k, row := range s {
		for j := 0; j < r; j++ {
			want := 0.0
			if j == k {
				want = 1
			}
			if abs(p.At(row, j)-want) > 1e-12 {
				t.Fatalf("P[%d,%d] = %g; want %g", row, j, p.At(row, j), want)
			}
		}
	}
}

func TestInterpolativeDecompErrorDecreasesWithRank(t *testing.T) {
	rng := NewRNG(35)
	q := RandLowRank(rng, 40, 40, 10, 0.01)
	var prev float64 = 1e18
	for _, r := range []int{2, 5, 10, 20} {
		p, s := InterpolativeDecomp(q, r)
		err := Sub(Mul(p, q.SelectRows(s)), q).FrobNorm()
		if err > prev*1.5 { // allow small non-monotonic noise
			t.Fatalf("ID error grew from %g to %g at rank %d", prev, err, r)
		}
		prev = err
	}
	// At rank ≥ true rank the residual should be near the noise floor.
	p, s := InterpolativeDecomp(q, 20)
	err := Sub(Mul(p, q.SelectRows(s)), q).FrobNorm() / q.FrobNorm()
	if err > 0.05 {
		t.Fatalf("relative ID error %g too large at rank 20", err)
	}
}

func TestInterpolativeDecompRankClamp(t *testing.T) {
	rng := NewRNG(36)
	q := RandN(rng, 6, 4, 1)
	p, s := InterpolativeDecomp(q, 100) // clamped to 4
	if len(s) != 4 || p.Cols() != 4 {
		t.Fatalf("clamped rank: len(S)=%d P cols=%d; want 4, 4", len(s), p.Cols())
	}
}

func TestInterpolativeDecompZeroRank(t *testing.T) {
	q := NewDense(5, 5)
	p, s := InterpolativeDecomp(q, 0)
	if len(s) != 0 || p.Cols() != 0 {
		t.Fatalf("zero-rank ID: len(S)=%d P cols=%d", len(s), p.Cols())
	}
}

// Property: an ID on an exactly rank-r matrix has reconstruction error near
// machine precision, and the selected indices are unique and in range.
func TestInterpolativeDecompProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := NewRNG(uint64(seed)*57 + 5)
		m := 5 + rng.Intn(20)
		n := 5 + rng.Intn(20)
		r := 1 + rng.Intn(min(m, n)-1)
		q := RandLowRank(rng, m, n, r, 0)
		p, s := InterpolativeDecomp(q, r)
		if len(s) != r {
			return false
		}
		seen := map[int]bool{}
		for _, i := range s {
			if i < 0 || i >= m || seen[i] {
				return false
			}
			seen[i] = true
		}
		rel := Sub(Mul(p, q.SelectRows(s)), q).FrobNorm() / (q.FrobNorm() + 1e-300)
		return rel < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
