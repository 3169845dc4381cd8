package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHadamard(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Hadamard(a, b)
	want := FromRows([][]float64{{5, 12}, {21, 32}})
	if !Equal(got, want, 0) {
		t.Fatalf("Hadamard = %v; want %v", got, want)
	}
	dst := NewDense(2, 2)
	HadamardInto(dst, a, b)
	if !Equal(dst, want, 0) {
		t.Fatalf("HadamardInto = %v; want %v", dst, want)
	}
}

func TestGramSymmetricPSD(t *testing.T) {
	rng := NewRNG(41)
	a := RandN(rng, 10, 7, 1)
	g := Gram(a)
	if d := MaxAbsDiff(g, g.T()); d > 1e-12 {
		t.Fatalf("Gram not symmetric: %g", d)
	}
	vals, _ := SymEig(g)
	for _, v := range vals {
		if v < -1e-9 {
			t.Fatalf("Gram has negative eigenvalue %g", v)
		}
	}
}

func TestKernelMatrixIsKhatriRaoGram(t *testing.T) {
	// Key structural identity behind Eq. (7): (A⊙G)(A⊙G)ᵀ = AAᵀ ∘ GGᵀ.
	rng := NewRNG(42)
	a := RandN(rng, 8, 5, 1)
	g := RandN(rng, 8, 6, 1)
	k1 := KernelMatrix(a, g)
	k2 := Gram(KhatriRao(a, g))
	if d := MaxAbsDiff(k1, k2); d > 1e-10 {
		t.Fatalf("kernel identity violated by %g", d)
	}
}

func TestKhatriRaoShape(t *testing.T) {
	rng := NewRNG(43)
	a := RandN(rng, 4, 3, 1)
	g := RandN(rng, 4, 5, 1)
	u := KhatriRao(a, g)
	if r, c := u.Dims(); r != 4 || c != 15 {
		t.Fatalf("KhatriRao dims = %d,%d; want 4,15", r, c)
	}
	// Row 2 must equal kron(a[2,:], g[2,:]).
	for p := 0; p < 3; p++ {
		for q := 0; q < 5; q++ {
			want := a.At(2, p) * g.At(2, q)
			if got := u.At(2, p*5+q); math.Abs(got-want) > 1e-14 {
				t.Fatalf("U[2,%d] = %g; want %g", p*5+q, got, want)
			}
		}
	}
}

func TestKhatriRaoApplyMatchesDense(t *testing.T) {
	rng := NewRNG(44)
	a := RandN(rng, 6, 4, 1)
	g := RandN(rng, 6, 3, 1)
	u := KhatriRao(a, g)
	v := make([]float64, 12)
	for i := range v {
		v[i] = rng.Norm()
	}
	got := KhatriRaoApply(a, g, v)
	want := MulVec(u, v)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("KhatriRaoApply[%d] = %g; want %g", i, got[i], want[i])
		}
	}
	y := make([]float64, 6)
	for i := range y {
		y[i] = rng.Norm()
	}
	gotT := KhatriRaoApplyT(a, g, y)
	wantT := MulVecT(u, y)
	for i := range gotT {
		if math.Abs(gotT[i]-wantT[i]) > 1e-10 {
			t.Fatalf("KhatriRaoApplyT[%d] = %g; want %g", i, gotT[i], wantT[i])
		}
	}
}

func TestRowNorms(t *testing.T) {
	m := FromRows([][]float64{{3, 4}, {0, 0}, {1, 0}})
	got := RowNorms(m)
	want := []float64{5, 0, 1}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-14 {
			t.Fatalf("RowNorms = %v; want %v", got, want)
		}
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Norm2 must not overflow on huge components.
	x := []float64{1e300, 1e300}
	got := Norm2(x)
	want := math.Sqrt2 * 1e300
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm2 = %g; want %g", got, want)
	}
	if Norm2(nil) != 0 || Norm2([]float64{0, 0}) != 0 {
		t.Fatal("Norm2 of zero vector must be 0")
	}
}

// Property: Khatri-Rao kernel identity holds for random shapes.
func TestKernelIdentityProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := NewRNG(uint64(seed)*39 + 11)
		m := 1 + rng.Intn(8)
		da := 1 + rng.Intn(8)
		dg := 1 + rng.Intn(8)
		a := RandN(rng, m, da, 1)
		g := RandN(rng, m, dg, 1)
		return MaxAbsDiff(KernelMatrix(a, g), Gram(KhatriRao(a, g))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hadamard product of PSD matrices is PSD (Schur product theorem)
// — this is what makes the SNGD kernel matrix PSD.
func TestSchurProductPSDProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := NewRNG(uint64(seed)*71 + 23)
		n := 2 + rng.Intn(8)
		p := Gram(RandN(rng, n, n+1, 1))
		q := Gram(RandN(rng, n, n+1, 1))
		vals, _ := SymEig(Hadamard(p, q))
		for _, v := range vals {
			if v < -1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The SYRK-style Gram must equal the general product exactly (same Dot
// kernel per element).
func TestGramMatchesGeneralProduct(t *testing.T) {
	rng := NewRNG(120)
	for _, dims := range [][2]int{{1, 3}, {7, 4}, {40, 17}, {100, 8}} {
		m := RandN(rng, dims[0], dims[1], 1)
		if d := MaxAbsDiff(Gram(m), MulTB(m, m)); d > 1e-12 {
			t.Fatalf("dims %v: SYRK Gram differs from general product by %g", dims, d)
		}
	}
}

func BenchmarkGram512(b *testing.B) {
	rng := NewRNG(1)
	m := RandN(rng, 512, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gram(m)
	}
}

func BenchmarkGramGeneral512(b *testing.B) {
	rng := NewRNG(1)
	m := RandN(rng, 512, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTB(m, m)
	}
}
