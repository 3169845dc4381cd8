package mat

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func symmetrize(a *Dense) *Dense {
	s := a.Clone().AddMat(a.T())
	return s.Scale(0.5)
}

func TestSymEigDiagonal(t *testing.T) {
	a := FromRows([][]float64{
		{3, 0, 0},
		{0, 1, 0},
		{0, 0, 2},
	})
	vals, vecs := SymEig(a)
	want := []float64{1, 2, 3}
	for i, v := range vals {
		if math.Abs(v-want[i]) > 1e-12 {
			t.Fatalf("vals = %v; want %v", vals, want)
		}
	}
	// Eigenvectors must be signed unit basis vectors.
	for j := 0; j < 3; j++ {
		col := vecs.Col(j)
		if math.Abs(Norm2(col)-1) > 1e-12 {
			t.Fatalf("eigenvector %d not unit: %v", j, col)
		}
	}
}

func TestSymEigKnown2x2(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, _ := SymEig(a)
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("vals = %v; want [1 3]", vals)
	}
}

func TestSymEigReconstruction(t *testing.T) {
	rng := NewRNG(21)
	for _, n := range []int{1, 2, 3, 10, 40} {
		a := symmetrize(RandN(rng, n, n, 1))
		vals, vecs := SymEig(a)
		// Rebuild V diag(vals) Vᵀ.
		vd := vecs.Clone()
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				vd.Set(i, j, vd.At(i, j)*vals[j])
			}
		}
		rec := MulTB(vd, vecs)
		if d := MaxAbsDiff(rec, a); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: reconstruction error %g", n, d)
		}
		// Orthonormality.
		if d := MaxAbsDiff(MulTA(vecs, vecs), Identity(n)); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: VᵀV differs from I by %g", n, d)
		}
	}
}

func TestSymEigTraceInvariant(t *testing.T) {
	f := func(seed uint16) bool {
		rng := NewRNG(uint64(seed)*91 + 1)
		n := 1 + rng.Intn(15)
		a := symmetrize(RandN(rng, n, n, 1))
		vals, _ := SymEig(a)
		var sum float64
		for _, v := range vals {
			sum += v
		}
		return math.Abs(sum-a.Trace()) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigPSDNonNegative(t *testing.T) {
	rng := NewRNG(23)
	b := RandN(rng, 20, 6, 1)
	k := Gram(b) // PSD with rank ≤ 6
	vals, _ := SymEig(k)
	for _, v := range vals {
		if v < -1e-8 {
			t.Fatalf("PSD matrix has negative eigenvalue %g", v)
		}
	}
	// Rank should be ≤ 6: at most 6 eigenvalues significantly > 0.
	big := 0
	for _, v := range vals {
		if v > 1e-8 {
			big++
		}
	}
	if big > 6 {
		t.Fatalf("rank-6 Gram matrix has %d large eigenvalues", big)
	}
}

func TestNumericalRankLowRank(t *testing.T) {
	rng := NewRNG(24)
	// Kernel built from an (almost) rank-5 factor: rank@90% must be small.
	u := RandLowRank(rng, 64, 32, 5, 0)
	k := Gram(u)
	r := NumericalRank(k, 0.9)
	if r > 5 || r < 1 {
		t.Fatalf("NumericalRank = %d; want in [1,5]", r)
	}
}

func TestNumericalRankFullRankIdentity(t *testing.T) {
	// Identity: every eigenvalue equal, rank@90% of n=10 is 9.
	if r := NumericalRank(Identity(10), 0.9); r != 9 {
		t.Fatalf("NumericalRank(I₁₀, .9) = %d; want 9", r)
	}
}

func TestNumericalRankZeroMatrix(t *testing.T) {
	if r := NumericalRank(NewDense(5, 5), 0.9); r != 0 {
		t.Fatalf("NumericalRank(0) = %d; want 0", r)
	}
}

func TestSymEigClusteredEigenvalues(t *testing.T) {
	// Matrix with repeated eigenvalues must still give orthonormal vectors.
	rng := NewRNG(25)
	n := 12
	q, _ := SymEig(symmetrize(RandN(rng, n, n, 1))) // random orthogonal basis
	_ = q
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(1 + i/4) // triples of equal eigenvalues
	}
	// Build A = V diag(vals) Vᵀ from a random orthogonal V.
	_, v := SymEig(symmetrize(RandN(rng, n, n, 1)))
	vd := v.Clone()
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			vd.Set(i, j, vd.At(i, j)*vals[j])
		}
	}
	a := MulTB(vd, v)
	got, _ := SymEig(a)
	sort.Float64s(vals)
	for i := range got {
		if math.Abs(got[i]-vals[i]) > 1e-8 {
			t.Fatalf("clustered eigenvalues: got %v want %v", got, vals)
		}
	}
}

func BenchmarkSymEig128(b *testing.B) {
	rng := NewRNG(1)
	a := RandSPD(rng, 128, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SymEig(a)
	}
}
