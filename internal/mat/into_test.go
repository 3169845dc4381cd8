package mat

import (
	"math"
	"testing"
)

// These property tests pin the contract of every *Into kernel variant:
// each must agree exactly (bit-for-bit, since both run the same arithmetic
// in the same order) with its allocating counterpart on random shapes, and
// each must reject a destination that aliases an operand.

func randMat(rng *RNG, r, c int) *Dense { return RandN(rng, r, c, 1) }

func sameBits(t *testing.T, name string, want, got *Dense) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		t.Fatalf("%s: dims %dx%d vs %dx%d", name, want.Rows(), want.Cols(), got.Rows(), got.Cols())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, wd[i], gd[i])
		}
	}
}

func sameBitsVec(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: len %d vs %d", name, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, want[i], got[i])
		}
	}
}

// TestIntoMatchesAllocating fans the whole *Into surface across a grid of
// shapes that crosses the packed-GEMM and small-product thresholds.
func TestIntoMatchesAllocating(t *testing.T) {
	rng := NewRNG(7)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {17, 9, 23}, {32, 64, 16}, {65, 70, 67},
	}
	for _, s := range shapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		at := a.T()
		bt := b.T()
		g := randMat(rng, s.m, s.n)

		sameBits(t, "MulInto", Mul(a, b), MulInto(GetDense(s.m, s.n), a, b))
		sameBits(t, "MulTAInto", MulTA(at, b), MulTAInto(GetDense(s.m, s.n), at, b))
		sameBits(t, "MulTBInto", MulTB(a, bt), MulTBInto(GetDense(s.m, s.n), a, bt))

		sameBits(t, "TInto", a.T(), a.TInto(GetDense(s.k, s.m)))
		sameBits(t, "HadamardInto", Hadamard(a, a), func() *Dense {
			d := GetDense(s.m, s.k)
			HadamardInto(d, a, a)
			return d
		}())
		sameBits(t, "SubInto", Sub(g, g), func() *Dense {
			d := GetDense(s.m, s.n)
			SubInto(d, g, g)
			return d
		}())

		sameBits(t, "GramInto", Gram(a), func() *Dense {
			d := GetDense(s.m, s.m)
			GramInto(d, a)
			return d
		}())
		sameBits(t, "GramTInto", GramT(a), func() *Dense {
			d := GetDense(s.k, s.k)
			GramTInto(d, a)
			return d
		}())

		idx := []int{s.m - 1, 0, s.m / 2}
		sameBits(t, "SelectRowsInto", a.SelectRows(idx), a.SelectRowsInto(GetDense(len(idx), s.k), idx))

		sameBits(t, "VStackInto", VStack(a, a), func() *Dense {
			d := GetDense(2*s.m, s.k)
			VStackInto(d, a, a)
			return d
		}())
		sameBits(t, "BlockDiagInto", BlockDiag(a, b), BlockDiagInto(GetDense(s.m+s.k, s.k+s.n), a, b))

		x := GetFloats(s.k)
		for i := range x {
			x[i] = rng.Float64()
		}
		sameBitsVec(t, "MulVecInto", MulVec(a, x), func() []float64 {
			d := GetFloats(s.m)
			MulVecInto(d, a, x)
			return d
		}())
		y := GetFloats(s.m)
		for i := range y {
			y[i] = rng.Float64()
		}
		sameBitsVec(t, "MulVecTInto", MulVecT(a, y), func() []float64 {
			d := GetFloats(s.k)
			MulVecTInto(d, a, y)
			return d
		}())

		sameBitsVec(t, "RowNormsInto", RowNorms(a), func() []float64 {
			d := GetFloats(s.m)
			RowNormsInto(d, a)
			return d
		}())
	}
}

// TestKernelIntoMatchesAllocating covers the Khatri-Rao family used by the
// SNGD/HyLo inner loops.
func TestKernelIntoMatchesAllocating(t *testing.T) {
	rng := NewRNG(11)
	am, ai, go_ := 24, 13, 7
	a := randMat(rng, am, ai)
	g := randMat(rng, am, go_)

	sameBits(t, "KernelMatrixInto", KernelMatrix(a, g), func() *Dense {
		d := GetDense(am, am)
		KernelMatrixInto(d, a, g)
		return d
	}())

	v := make([]float64, ai*go_)
	for i := range v {
		v[i] = rng.Float64()
	}
	sameBitsVec(t, "KhatriRaoApplyInto", KhatriRaoApply(a, g, v), func() []float64 {
		d := GetFloats(am)
		KhatriRaoApplyInto(d, a, g, v)
		return d
	}())
	y := make([]float64, am)
	for i := range y {
		y[i] = rng.Float64()
	}
	sameBitsVec(t, "KhatriRaoApplyTInto", KhatriRaoApplyT(a, g, y), func() []float64 {
		d := GetFloats(ai * go_)
		KhatriRaoApplyTInto(d, a, g, y)
		return d
	}())
}

// TestIntoAliasPanics pins that every Into kernel with an aliasing hazard
// rejects dst == operand instead of silently corrupting the result.
func TestIntoAliasPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: aliased destination did not panic", name)
			}
		}()
		fn()
	}
	sq := RandN(NewRNG(5), 8, 8, 1)
	mustPanic("MulInto", func() { MulInto(sq, sq, sq) })
	mustPanic("MulTAInto", func() { MulTAInto(sq, sq, sq) })
	mustPanic("MulTBInto", func() { MulTBInto(sq, sq, sq) })
	mustPanic("TInto", func() { sq.TInto(sq) })
	mustPanic("GramInto", func() { GramInto(sq, sq) })
	mustPanic("InvCondInto", func() { _, _ = InvCondInto(sq, sq) })
	rhs := RandN(NewRNG(6), 8, 8, 1)
	mustPanic("SolveCondInto dst=a", func() { _, _ = SolveCondInto(sq, sq, rhs) })
	mustPanic("SolveCondInto dst=b", func() { _, _ = SolveCondInto(rhs, sq, rhs) })
}

// TestIntoDimensionPanics pins the destination-shape contract.
func TestIntoDimensionPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: wrong-shaped destination did not panic", name)
			}
		}()
		fn()
	}
	rng := NewRNG(9)
	a := randMat(rng, 4, 6)
	b := randMat(rng, 6, 3)
	bad := NewDense(5, 5)
	mustPanic("MulInto", func() { MulInto(bad, a, b) })
	mustPanic("TInto", func() { a.TInto(bad) })
	mustPanic("SelectRowsInto", func() { a.SelectRowsInto(bad, []int{0, 1}) })
	mustPanic("BlockDiagInto", func() { BlockDiagInto(bad, a, b) })
	mustPanic("InvCondInto", func() { _, _ = InvCondInto(bad, randMat(rng, 4, 4)) })
	sq, rhs := randMat(rng, 4, 4), randMat(rng, 4, 2)
	mustPanic("SolveCondInto dst", func() { _, _ = SolveCondInto(bad, sq, rhs) })
	mustPanic("SolveCondInto rhs", func() { _, _ = SolveCondInto(NewDense(6, 3), sq, b) })
	mustPanic("SolveCondInto non-square", func() { _, _ = SolveCondInto(NewDense(4, 2), a, rhs) })
}
