package mat

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d; want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %g; want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %g; want 7.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 8 {
		t.Fatalf("after Add, At(1,2) = %g; want 8", got)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %g; want %g", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(1)
	m := RandN(rng, 17, 29, 1)
	if !Equal(m, m.T().T(), 0) {
		t.Fatal("transpose is not an involution")
	}
}

func TestTransposeElements(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if r, c := tr.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = %d,%d; want 3,2", r, c)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", tr)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestAddScaledAndSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	a.AddScaled(b, 0.1)
	want := FromRows([][]float64{{2, 4}, {6, 8}})
	if !Equal(a, want, 1e-12) {
		t.Fatalf("AddScaled = %v; want %v", a, want)
	}
	d := Sub(want, a)
	if d.FrobNorm() != 0 {
		t.Fatal("Sub of equal matrices is nonzero")
	}
}

func TestAddDiagTrace(t *testing.T) {
	m := NewDense(3, 3)
	m.AddDiag(2.5)
	if got := m.Trace(); math.Abs(got-7.5) > 1e-15 {
		t.Fatalf("Trace = %g; want 7.5", got)
	}
}

func TestSelectRows(t *testing.T) {
	m := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	s := m.SelectRows([]int{3, 1})
	want := FromRows([][]float64{{4, 4}, {2, 2}})
	if !Equal(s, want, 0) {
		t.Fatalf("SelectRows = %v; want %v", s, want)
	}
}

func TestSliceRows(t *testing.T) {
	m := FromRows([][]float64{{1}, {2}, {3}, {4}})
	s := m.SliceRows(1, 3)
	want := FromRows([][]float64{{2}, {3}})
	if !Equal(s, want, 0) {
		t.Fatalf("SliceRows = %v; want %v", s, want)
	}
}

func TestVStack(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	v := VStack(a, b)
	want := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if !Equal(v, want, 0) {
		t.Fatalf("VStack = %v; want %v", v, want)
	}
}

func TestBlockDiag(t *testing.T) {
	a := FromRows([][]float64{{1}})
	b := FromRows([][]float64{{2, 3}, {4, 5}})
	d := BlockDiag(a, b)
	want := FromRows([][]float64{
		{1, 0, 0},
		{0, 2, 3},
		{0, 4, 5},
	})
	if !Equal(d, want, 0) {
		t.Fatalf("BlockDiag = %v; want %v", d, want)
	}
}

func TestRowColAccess(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if got := m.Col(1); got[0] != 2 || got[1] != 5 {
		t.Fatalf("Col(1) = %v", got)
	}
	r := m.Row(1)
	r[0] = 44 // Row aliases storage
	if m.At(1, 0) != 44 {
		t.Fatal("Row does not alias storage")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

// Property: (A+B)ᵀ = Aᵀ + Bᵀ on random small matrices.
func TestTransposeAdditivityProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := NewRNG(uint64(seed) + 1)
		r, c := 1+rng.Intn(12), 1+rng.Intn(12)
		a := RandN(rng, r, c, 1)
		b := RandN(rng, r, c, 1)
		lhs := a.Clone().AddMat(b).T()
		rhs := a.T().AddMat(b.T())
		return Equal(lhs, rhs, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringTruncation(t *testing.T) {
	rng := NewRNG(200)
	small := RandN(rng, 2, 2, 1)
	s := small.String()
	if !strings.Contains(s, "Dense(2x2)") {
		t.Fatalf("String missing header: %q", s)
	}
	big := RandN(rng, 20, 20, 1)
	bs := big.String()
	if !strings.Contains(bs, "...") {
		t.Fatal("large matrix String not truncated")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatal("empty FromRows should be 0x0")
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseDataLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDenseData(2, 2, make([]float64, 3))
}

func TestCopyFromMismatchPanics(t *testing.T) {
	defer func() { recover() }()
	NewDense(2, 3).CopyFrom(NewDense(3, 3))
	t.Error("CopyFrom mismatch did not panic")
}

func TestMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{-3, 1}, {2, -0.5}})
	if m.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %g", m.MaxAbs())
	}
}

func TestEqualDimensionMismatch(t *testing.T) {
	if Equal(NewDense(1, 2), NewDense(2, 1), 1) {
		t.Fatal("Equal accepted mismatched dims")
	}
}

func TestRNGPerm(t *testing.T) {
	rng := NewRNG(201)
	p := rng.Perm(10)
	seen := map[int]bool{}
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}
